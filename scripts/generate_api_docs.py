"""Regenerate docs/API.md from the package's public surface.

Usage:  python scripts/generate_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import io
import pathlib
import re
import typing

MODULES = [
    "repro.core.protocol", "repro.core.bias", "repro.core.roots",
    "repro.core.lower_bound", "repro.core.jump_bound", "repro.core.mean_field",
    "repro.core.theory",
    "repro.protocols.voter", "repro.protocols.minority", "repro.protocols.majority",
    "repro.protocols.two_choices", "repro.protocols.blends",
    "repro.protocols.parametric", "repro.protocols.table", "repro.protocols.registry",
    "repro.dynamics.config", "repro.dynamics.engine", "repro.dynamics.batched",
    "repro.dynamics.agentwise",
    "repro.dynamics.run", "repro.dynamics.sequential", "repro.dynamics.kactivation",
    "repro.dynamics.multiopinion", "repro.dynamics.noise", "repro.dynamics.zealots",
    "repro.dynamics.adversary", "repro.dynamics.graphs", "repro.dynamics.heterogeneous",
    "repro.dynamics.rng", "repro.dynamics.scenarios",
    "repro.durable",
    "repro.telemetry.recorder", "repro.telemetry.jsonl",
    "repro.telemetry.columnar",
    "repro.telemetry.resources", "repro.telemetry.heartbeat",
    "repro.telemetry.prometheus", "repro.telemetry.profiling",
    "repro.execution.checkpoint", "repro.execution.faults", "repro.execution.shutdown",
    "repro.execution.backoff", "repro.execution.supervisor",
    "repro.service.jobstore", "repro.service.worker", "repro.service.server",
    "repro.markov.chain", "repro.markov.exact", "repro.markov.birth_death",
    "repro.markov.doob", "repro.markov.concentration", "repro.markov.escape",
    "repro.markov.spectral", "repro.markov.quasistationary",
    "repro.markov.large_deviations", "repro.markov.absorption_time",
    "repro.markov.coupling", "repro.markov.sequential_bound",
    "repro.dual.coalescing",
    "repro.extensions.memory", "repro.extensions.population", "repro.extensions.undecided",
    "repro.analysis.ensemble", "repro.analysis.scaling", "repro.analysis.series",
    "repro.analysis.traces", "repro.analysis.watch", "repro.analysis.index",
    "repro.cli",
]


def _exit_code_table() -> str:
    """The exit-code taxonomy as a markdown table.

    Generated from :data:`repro.execution.shutdown.EXIT_CODES` — the single
    source of truth — so the docs can never drift from the constants.
    """
    from repro.execution.shutdown import EXIT_CODES

    lines = [
        "## Exit codes",
        "",
        "Per-failure-class exit codes of the `repro` CLI, generated from",
        "`repro.execution.shutdown.EXIT_CODES`.",
        "",
        "| code | name | meaning |",
        "|------|------|---------|",
    ]
    for name, value, description in EXIT_CODES:
        lines.append(f"| {value} | `{name}` | {description} |")
    return "\n".join(lines) + "\n"


def _signature(item) -> str:
    """A function's signature for the index, or "" where it has none.

    Emitted so the index can't silently drift from the code: regenerating
    after an API change (e.g. a new ``recorder=`` parameter) updates every
    affected entry.
    """
    try:
        text = str(inspect.signature(item))
    except (TypeError, ValueError):
        return ""
    # Function-object defaults repr with a memory address, which would make
    # the generated file differ on every run; keep just the function name.
    return re.sub(r"<function (\w+) at 0x[0-9a-f]+>", r"<function \1>", text)


def main() -> None:
    out = io.StringIO()
    out.write("# API reference\n\n")
    out.write("One-line index of every public item, with call signatures,\n")
    out.write("generated from the code\n")
    out.write("(`python scripts/generate_api_docs.py` regenerates this file).\n")
    out.write("\n")
    out.write(_exit_code_table())
    for name in MODULES:
        module = importlib.import_module(name)
        first_line = (module.__doc__ or "").strip().splitlines()[0]
        out.write(f"\n## `{name}`\n\n{first_line}\n\n")
        for item_name in getattr(module, "__all__", []):
            item = getattr(module, item_name)
            doc = (inspect.getdoc(item) or "").strip().splitlines()
            summary = doc[0] if doc else ""
            if typing.get_origin(item) is not None:
                kind = "type"
                label = item_name
                summary = str(item).replace("typing.", "")
            elif inspect.isclass(item):
                kind = "class"
                label = item_name
            elif callable(item):
                kind = "def"
                label = f"{item_name}{_signature(item)}"
            else:
                kind = "const"
                label = item_name
                # A constant's own value is its documentation; the docstring
                # inspect finds is just the one for its type (useless noise
                # like "int([x]) -> integer").
                value = repr(item)
                summary = value if len(value) <= 72 else value[:69] + "..."
            out.write(f"- **`{label}`** ({kind}) — {summary}\n")
    target = pathlib.Path(__file__).resolve().parent.parent / "docs" / "API.md"
    target.write_text(out.getvalue())
    print(f"wrote {target} ({len(out.getvalue())} bytes)")


if __name__ == "__main__":
    main()

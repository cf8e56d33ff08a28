#!/usr/bin/env python3
"""Run ``gest analyze`` and ``gest check`` over every shipped winner,
and compile the winners as a search does.

Feeds all ``configs/*/results/individuals/*.txt`` sources through the
``analyze`` and ``check`` CLI subcommands (the entry points users hit
for the static passes; no search runs the dataflow pass), in JSON
mode, against the platform each config targets.  Verifies every source
analyzes cleanly: exit code 0, a well-formed cost block with positive
cycle bounds, a static IPC within the machine's issue width, and
deterministically ordered diagnostics; and checks cleanly: exit code
0, no error diagnostic, and a non-empty measured loop in the static
profile.  Then compiles each config's winners, in order, through one
:class:`~repro.isa.splice.TemplateSplicer` on the platform's assembler
(a search's compile path, with its memo of decoded lines) and checks
every program equals a plain ``assemble`` of its source.  Exits
non-zero on the first violation; CI runs this as the analyze-smoke
leg.

Usage: PYTHONPATH=src python scripts/analyze_smoke.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from repro.cli import main
from repro.cpu.microarch import microarch_for
from repro.isa import assembler_for
from repro.isa.splice import TemplateSplicer

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Shipped config directory -> analyze platform.
CONFIG_PLATFORMS = {
    "arm_ipc": "cortex_a15",
    "arm_power": "cortex_a15",
    "arm_temperature": "cortex_a15",
    "x86_didt": "athlon_x4",
}


def run_json(command: str, path: Path, platform: str) -> dict:
    """``gest <command> <path> --platform <platform> --json``, which
    must exit 0; returns its JSON document."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, str(path), "--platform", platform,
                     "--json"])
    if code != 0:
        raise SystemExit(f"FAIL {path}: {command} exited {code}\n"
                         f"{out.getvalue()}")
    return json.loads(out.getvalue())


def check(path: Path, platform: str) -> None:
    payload = run_json("check", path, platform)
    if payload["errors"] != 0:
        raise SystemExit(f"FAIL {path}: check reports "
                         f"{payload['errors']} error(s)")
    if not payload["profile"]["loop_length"] > 0:
        raise SystemExit(f"FAIL {path}: check profiles an empty loop")
    payload = run_json("analyze", path, platform)
    arch = microarch_for(platform)
    cost = payload["cost"]
    if cost["arch"] != platform:
        raise SystemExit(f"FAIL {path}: cost priced for {cost['arch']}")
    if not cost["bound_cycles"] > 0:
        raise SystemExit(f"FAIL {path}: non-positive cycle bound")
    if not 0 < cost["ipc_upper"] <= arch.issue_width + 1e-9:
        raise SystemExit(
            f"FAIL {path}: static IPC {cost['ipc_upper']} outside "
            f"(0, {arch.issue_width}]")
    keys = [(d.get("file") or "", d["code"], d.get("line") or 0)
            for d in payload["diagnostics"]]
    if keys != sorted(keys):
        raise SystemExit(f"FAIL {path}: diagnostics not sorted: {keys}")


def compile_in_order(winners, platform: str) -> None:
    """Every winner through one splicer equals a plain assembly, also
    after the later winners were compiled."""
    assembler = assembler_for(microarch_for(platform).isa)
    splicer = TemplateSplicer(assembler)
    sources = [path.read_text() for path in winners]
    programs = [splicer.compile(source, path.name)
                for path, source in zip(winners, sources)]
    for path, source, program in zip(winners, sources, programs):
        if program != assembler.assemble(source, path.name):
            raise SystemExit(f"FAIL {path}: the splicer's program differs "
                             f"from the assembler's")


def run() -> int:
    total = 0
    for config_dir, platform in sorted(CONFIG_PLATFORMS.items()):
        winners = sorted((REPO_ROOT / "configs" / config_dir / "results"
                          / "individuals").glob("*.txt"))
        if not winners:
            raise SystemExit(f"FAIL: no winners under {config_dir}")
        for path in winners:
            check(path, platform)
        compile_in_order(winners, platform)
        total += len(winners)
        print(f"analyze-smoke: {config_dir}: {len(winners)} winners OK "
              f"({platform})")
    print(f"analyze-smoke: {total} sources analyzed, checked and "
          f"compiled cleanly")
    return 0


if __name__ == "__main__":
    sys.exit(run())

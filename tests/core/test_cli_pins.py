"""Pins of the CLI's observable surface.

Two kinds of pin live in ``tests/data/cli_stdout.sha256``:

- ``stdout:<name>``: the sha256 of the exit code plus stdout of a short,
  valid invocation, with wall-clock figures (``wall:``, ``computed in``,
  the phase profile, span durations, heartbeat counts) and the temporary
  directory masked;
- ``parser:<prog>``: the sha256 of one (sub)parser's schema -- option
  strings, defaults, choices, metavars and help strings.  Type functions
  and error text are deliberately left out.

After an intended change to the CLI's output or schema, regenerate the
file with ``PYTHONPATH=src python tests/core/test_cli_pins.py --update``
and review the diff.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from typing import Dict, List

import pytest

from repro.cli import build_parser, main

PIN_FILE = os.path.join(os.path.dirname(__file__), "..", "data", "cli_stdout.sha256")

_PLANT = "crac:outage@day1,repair=12h;fan:failure@36h"

#: name -> the argv of each step; ``{tmp}`` is a fresh directory.  A pin
#: with several steps hashes their outputs in order.
INVOCATIONS: Dict[str, List[List[str]]] = {
    "run": [["run", "--until", "2010-02-22"]],
    "run-report": [["run", "--until", "2010-02-22", "--report"]],
    "run-degraded": [[
        "run", "--until", "2010-02-22", "--link-faults", "storm:0.5:seed=3",
        "--monitor-retries", "2", "--confirm-rounds", "2",
    ]],
    "run-plant": [[
        "run", "--until", "2010-02-23", "--plant-faults", _PLANT,
        "--trip-policy", "",
    ]],
    "run-artifacts-resume": [
        [
            "run", "--until", "2010-02-22", "--telemetry-out", "{tmp}/t.json",
            "--run-log", "{tmp}/r.jsonl", "--progress-out", "{tmp}/p.jsonl",
            "--checkpoint-every", "2", "--checkpoint-dir", "{tmp}/ck",
            "--plant-faults", _PLANT,
        ],
        [
            "run", "--resume", "{tmp}/ck/checkpoint_000000640800.json",
            "--until", "2010-02-24", "--checkpoint-every", "1",
            "--checkpoint-dir", "{tmp}/ck2",
        ],
    ],
    "run-hosts": [["run", "--hosts", "38", "--until", "2010-02-22"]],
    "run-hosts-plant": [[
        "run", "--hosts", "38", "--until", "2010-02-23", "--plant-faults",
        _PLANT, "--trip-policy", "", "--telemetry-out", "{tmp}/t.json",
        "--progress-out", "{tmp}/p.jsonl",
    ]],
    "telemetry": [["telemetry", "--until", "2010-02-21", "--top", "1000"]],
    "telemetry-hosts": [[
        "telemetry", "--hosts", "38", "--until", "2010-02-21", "--top", "1000",
    ]],
    "observe-pod": [[
        "observe", "--hosts", "57", "--until", "2010-02-22", "--pod", "1",
        "--width", "40", "--plant-faults", _PLANT,
    ]],
    "sweep": [["sweep", "--seeds", "7,11", "--until", "2010-02-21", "--no-cache"]],
    "atlas-risk": [["atlas", "--sites", "5", "--risk"]],
    "control-compare": [[
        "control", "compare", "--until", "2010-02-21", "--climates", "helsinki",
    ]],
    "control-list": [["control", "list"]],
    "scenarios": [["scenarios"]],
    "pue": [["pue"]],
    "sites": [["sites"]],
    "figures": [["figures", "--until", "2010-02-22", "--width", "60"]],
    "export": [["export", "{tmp}/out", "--until", "2010-02-21"]],
}

_DURATION = re.compile(r" +\d+(?:\.\d+)? (?:us|ms|s)\b")
_MASKS = (
    (re.compile(r"^wall: .*$", re.M), "wall: <masked>"),
    (re.compile(r"computed in \S+ s"), "computed in <t> s"),
    (re.compile(r"\(\d+ heartbeats\)"), "(<n> heartbeats)"),
)


def _mask_phase_profile(text: str) -> str:
    """Keep the frame count and the phase labels, drop every timing."""
    out: List[str] = []
    lines = text.split("\n")
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("phase profile ("):
            out.append(re.sub(r", [0-9.]+ ms total", ", <t> ms total", line))
            rows = []
            i += 1
            while i < len(lines) and lines[i].startswith("  "):
                rows.append("  " + lines[i].split()[0])
                i += 1
            out.extend(sorted(rows))
            continue
        out.append(line)
        i += 1
    return "\n".join(out)


def _mask_span_report(text: str) -> str:
    """Mask span durations; rows ordered by wall time are sorted."""
    out: List[str] = []
    block: List[str] = []
    in_slowest = False
    for line in text.split("\n"):
        if line.startswith("Slowest spans"):
            in_slowest = True
            out.append(line)
            continue
        if in_slowest and line.startswith("  "):
            block.append(_DURATION.sub(" <t>", line))
            continue
        if in_slowest:
            out.extend(sorted(block))
            block, in_slowest = [], False
        out.append(_DURATION.sub(" <t>", line) if " fires" in line else line)
    out.extend(sorted(block))
    return "\n".join(out)


def mask(text: str, tmp: str) -> str:
    text = text.replace(tmp, "<tmp>")
    for pattern, replacement in _MASKS:
        text = pattern.sub(replacement, text)
    return _mask_span_report(_mask_phase_profile(text))


def invoke(name: str) -> str:
    """Run one pin's steps in process; return the masked transcript."""
    parts: List[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        for step in INVOCATIONS[name]:
            argv = [arg.replace("{tmp}", tmp) for arg in step]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            parts.append(f"$ {' '.join(step)}\nexit {code}\n{mask(out.getvalue(), tmp)}")
    return "\n".join(parts)


def _schema(parser: argparse.ArgumentParser) -> List[dict]:
    rows: List[dict] = [{"prog": parser.prog, "description": parser.description}]
    for action in parser._actions:
        row = {
            "kind": type(action).__name__,
            "options": list(action.option_strings),
            "dest": action.dest,
            "default": repr(action.default),
            "metavar": action.metavar,
            "help": action.help,
            "nargs": action.nargs,
            "required": action.required,
        }
        if isinstance(action, argparse._SubParsersAction):
            row["choices"] = [
                [choice.dest, choice.help] for choice in action._choices_actions
            ]
        else:
            row["choices"] = None if action.choices is None else list(action.choices)
        rows.append(row)
    return rows


def parsers() -> Dict[str, argparse.ArgumentParser]:
    """Every parser in the tree, keyed by prog."""
    found: Dict[str, argparse.ArgumentParser] = {}
    stack = [build_parser()]
    while stack:
        parser = stack.pop()
        found[parser.prog] = parser
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                stack.extend(action.choices.values())
    return found


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def current_pins() -> Dict[str, str]:
    pins = {f"stdout:{name}": _digest(invoke(name)) for name in INVOCATIONS}
    for prog, parser in parsers().items():
        pins[f"parser:{prog}"] = _digest(json.dumps(_schema(parser), sort_keys=True))
    return pins


def load_pins() -> Dict[str, str]:
    with open(PIN_FILE, encoding="utf-8") as fh:
        pairs = (line.rstrip("\n").split("  ", 1) for line in fh if line.strip())
        return {key: digest for digest, key in pairs}


PINS = load_pins() if os.path.exists(PIN_FILE) else {}


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_stdout_pin(name):
    assert _digest(invoke(name)) == PINS[f"stdout:{name}"], invoke(name)


@pytest.mark.parametrize("prog", sorted(parsers()))
def test_parser_pin(prog):
    schema = json.dumps(_schema(parsers()[prog]), sort_keys=True)
    assert _digest(schema) == PINS[f"parser:{prog}"], schema


def test_every_pin_is_exercised():
    expected = {f"stdout:{name}" for name in INVOCATIONS}
    expected |= {f"parser:{prog}" for prog in parsers()}
    assert set(PINS) == expected


if __name__ == "__main__":
    if sys.argv[1:] == ["--update"]:
        with open(PIN_FILE, "w", encoding="utf-8") as fh:
            for key, digest in sorted(current_pins().items()):
                fh.write(f"{digest}  {key}\n")
    elif sys.argv[1:2] == ["--show"]:
        print(invoke(sys.argv[2]))
    else:
        sys.exit("usage: test_cli_pins.py --update | --show NAME")

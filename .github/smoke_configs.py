"""Run every bundled config's commands; check or compare their outputs.

    python .github/smoke_configs.py              # exit codes and determinism
    python .github/smoke_configs.py --base DIR   # outputs against the tree at DIR

Run from the root of a ghd checkout.  Besides the bundled configs, both modes
run the command of each benchmark workload on its seed-101 config, generated
into a temporary directory by ``ghdbench/workloads.py``; bump_solve's table
has values with three-digit exponents, which no bundled config writes.

Both modes run each command as ``python -m ghd.cli`` with PYTHONPATH at a
tree's ``src``; no installed ``ghd`` script is needed.

Without ``--base``, each command in EXPECTED and each workload command runs
twice on this tree into two directories, and the check fails on a wrong exit
code or on output files whose sha256 differ between the two runs.

With ``--base``, each command runs once on this tree and once on the
checkout at DIR, both with this tree's configs and workloads.  A table of
the output files whose sha256 differ, and of the exit codes that differ,
goes to $GITHUB_STEP_SUMMARY (stdout when unset); for a differing ``.csv``
or ``.dat`` file it gives the largest absolute difference over the numeric
fields and the largest difference scaled by max(1, |base value|), and for
a differing ``.json`` file the same over its numeric leaves.  The numbers
inside a text field, such as a column label ``n(p=-4.17)``, count as
fields when the text around them is the same on both sides; any other
text difference is reported as such.
Differences are reported, never failed on.  In either mode, a ``ghd`` that
imports from outside the tree under test fails the run, since an editable
install can shadow PYTHONPATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_SEED = 101

# (config, command, expected exit code): every command a config has a
# section for, plus check and seed
EXPECTED = [
    ("compare_reference", "check", 0),
    ("compare_reference", "seed", 0),
    ("compare_reference", "compare-reference", 0),
    ("hard_rods_gaussian", "check", 0),
    ("hard_rods_gaussian", "seed", 0),
    ("hard_rods_gaussian", "solve", 0),
    ("lieb_liniger_gaussian", "check", 0),
    ("lieb_liniger_gaussian", "seed", 0),
    ("lieb_liniger_gaussian", "solve", 0),
    ("lieb_liniger_gaussian", "conserve", 0),
    ("lieb_liniger_gaussian", "plotdata", 0),
    ("partitioning_lieb_liniger", "check", 0),
    ("partitioning_lieb_liniger", "seed", 0),
    ("partitioning_lieb_liniger", "weakcheck", 0),
    ("zero_kernel_gaussian", "check", 0),
    ("zero_kernel_gaussian", "seed", 0),
    ("zero_kernel_gaussian", "solve", 0),
    ("zero_kernel_gaussian", "conserve", 0),
]


def digests(out: Path) -> dict:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir())} if out.is_dir() else {}


def run(program: list, cfg: Path, cmd: str, out: Path, env=None):
    """(exit code, wall seconds, output digests) of one command."""
    start = time.perf_counter()
    rc = subprocess.run([*program, cmd, "--config", str(cfg), "--out", str(out)],
                        stdout=subprocess.DEVNULL, env=env).returncode
    return rc, time.perf_counter() - start, digests(out)


def commands(workdir: Path) -> list:
    """(config path, command, expected exit code): EXPECTED, then each
    benchmark workload's command on its seed-101 config, written to workdir."""
    sys.path.insert(0, str(ROOT / "ghdbench"))
    from workloads import WORKLOADS

    runs = [(ROOT / "configs" / f"{cfg}.json", cmd, want) for cfg, cmd, want in EXPECTED]
    for name, workload in WORKLOADS.items():
        path = workdir / f"{name}_{WORKLOAD_SEED}.json"
        path.write_text(json.dumps(workload.make_config(WORKLOAD_SEED)))
        runs.append((path, workload.command, 0))
    return runs


def smoke(runs: list) -> int:
    env = tree_env(ROOT)
    wrong = 0
    for cfg, cmd, want in runs:
        # two processes into two directories: identical config must give
        # byte-identical output files
        (rc, wall, first), (rc2, _, second) = (
            run([sys.executable, "-m", "ghd.cli"], cfg, cmd,
                Path(f"out_smoke/{rep}/{cfg.stem}/{cmd}"), env) for rep in "ab")
        differ = sorted(name for name in first.keys() | second.keys()
                        if first.get(name) != second.get(name))
        wrong += rc != want or rc2 != rc or bool(differ)
        print(f"{cfg.stem:26} {cmd:18} exit {rc}/{rc2} (expected {want}) {wall:6.2f} s"
              f" {len(first)} files" + (f", differ: {differ}" if differ else ""))
    return 1 if wrong else 0


def _leaves(value, path: str = "") -> list:
    """(path, leaf) pairs of a parsed JSON value, objects in key order."""
    if isinstance(value, dict):
        return [leaf for key in sorted(value) for leaf in _leaves(value[key], f"{path}.{key}")]
    if isinstance(value, list):
        return [leaf for i, item in enumerate(value) for leaf in _leaves(item, f"{path}[{i}]")]
    return [(path, value)]


def _number(field) -> float:
    """A numeric table field or JSON leaf as a float; ValueError otherwise."""
    if isinstance(field, bool) or not isinstance(field, (str, int, float)):
        raise ValueError(field)
    return float(field)


# a number inside a text field, such as the node in plotdata's n(p=-4.17)
_INNER_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _number_pairs(new, old) -> list:
    """(new, old) pairs of the numbers two differing fields hold: the fields
    themselves when both are numbers, else the numbers inside two texts
    that are equal around them; ValueError otherwise."""
    try:
        return [(_number(new), _number(old))]
    except ValueError:
        if not (isinstance(new, str) and isinstance(old, str)):
            raise
    new, old = _INNER_NUMBER.split(new), _INNER_NUMBER.split(old)
    if new[::2] != old[::2]:
        raise ValueError("text differs")
    return [(float(a), float(b)) for a, b in zip(new[1::2], old[1::2])]


def max_diffs(new: Path, old: Path) -> tuple[str, str]:
    """Largest absolute difference, and largest difference scaled by
    max(1, |old value|), over the numeric fields of two tables or the
    numeric leaves of two JSON files; or why there is none."""
    if not (new.is_file() and old.is_file()):
        return "", ""
    if new.suffix == ".json":
        leaves = [_leaves(json.loads(path.read_text())) for path in (new, old)]
        if [key for key, _ in leaves[0]] != [key for key, _ in leaves[1]]:
            return "keys differ", ""
        fields = [[value for _, value in side] for side in leaves]
    elif new.suffix in (".csv", ".dat"):
        fields = [path.read_text().replace(",", " ").split() for path in (new, old)]
        if len(fields[0]) != len(fields[1]):
            return "field count differs", ""
    else:
        return "", ""
    worst = scaled = 0.0
    for new_field, old_field in zip(*fields):
        if new_field == old_field:
            continue
        try:
            pairs = _number_pairs(new_field, old_field)
        except ValueError:
            return "text differs", ""
        for a, b in pairs:
            diff = abs(a - b)
            diff = diff if not math.isnan(diff) else math.inf
            worst = max(worst, diff)
            scaled = max(scaled, diff / max(1.0, abs(b)))
    return f"{worst:.3g}", f"{scaled:.3g}"


def tree_env(tree: Path) -> dict:
    """Environment that imports ghd from ``tree``/src, checked by importing it."""
    src = (tree / "src").resolve()
    env = dict(os.environ, PYTHONPATH=str(src))
    origin = subprocess.run([sys.executable, "-c", "import ghd; print(ghd.__file__)"],
                            env=env, capture_output=True, text=True, check=True).stdout
    if not Path(origin.strip()).resolve().is_relative_to(src):
        sys.exit(f"ghd imports from {origin.strip()}, not from the tree under test {src}")
    return env


def compare(base: Path, runs: list) -> int:
    envs = {"head": tree_env(ROOT), "base": tree_env(base)}
    rows = []
    for cfg, cmd, _ in runs:
        outs = {side: Path(f"out_compare/{side}/{cfg.stem}/{cmd}") for side in envs}
        (rc, _, head), (rc_base, _, old) = (
            run([sys.executable, "-m", "ghd.cli"], cfg, cmd, outs[side], env)
            for side, env in envs.items())
        exits = f"{rc}/{rc_base}"
        if rc != rc_base:
            rows.append(f"| {cfg.stem} | {cmd} | {exits} | (exit code) | | | | |")
        for name in sorted(head.keys() | old.keys()):
            if head.get(name) != old.get(name):
                new_sha, old_sha = (d.get(name, "missing")[:12] for d in (head, old))
                diff, scaled = max_diffs(outs["head"] / name, outs["base"] / name)
                rows.append(f"| {cfg.stem} | {cmd} | {exits} | {name} | {new_sha} | {old_sha}"
                            f" | {diff} | {scaled} |")
    lines = [f"### Outputs against the base tree ({len(runs)} commands)", ""]
    if rows:
        lines += ["| config | command | exit head/base | file | head sha256 | base sha256"
                  " | max abs diff | max scaled diff |", "|---|---|---|---|---|---|---|---|",
                  *rows]
    else:
        lines.append("Every command gives the same exit code and byte-identical "
                     "output files.")
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        print("\n".join(lines))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path,
                        help="checkout of the base commit to compare outputs against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        runs = commands(Path(workdir))
        return compare(args.base, runs) if args.base else smoke(runs)


if __name__ == "__main__":
    sys.exit(main())

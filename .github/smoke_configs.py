"""Run every bundled config's commands; check or compare their outputs.

    python .github/smoke_configs.py              # exit codes and determinism
    python .github/smoke_configs.py --base DIR   # outputs against the tree at DIR

Run from the root of a ghd checkout.  Without ``--base``, each command in
EXPECTED runs twice through the installed ``ghd`` into two directories, and
the check fails on a wrong exit code or on output files whose sha256 differ
between the two runs.

With ``--base``, each command runs once on this tree and once on the
checkout at DIR, as ``python -m ghd.cli`` with PYTHONPATH at that tree's
``src`` and this tree's configs.  A table of the output files whose sha256
differ, and of the exit codes that differ, goes to $GITHUB_STEP_SUMMARY
(stdout when unset); for a differing ``.csv`` or ``.dat`` file it gives the
largest absolute difference over the numeric fields and the largest
difference scaled by max(1, |base value|).  Differences are
reported, never failed on; a ``ghd`` that imports from outside the tree
under test fails the run, since an editable install can shadow PYTHONPATH.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

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


def run(program: list, cfg: str, cmd: str, out: Path, env=None):
    """(exit code, wall seconds, output digests) of one command."""
    start = time.perf_counter()
    rc = subprocess.run([*program, cmd, "--config", str(ROOT / "configs" / f"{cfg}.json"),
                         "--out", str(out)], stdout=subprocess.DEVNULL, env=env).returncode
    return rc, time.perf_counter() - start, digests(out)


def smoke() -> int:
    wrong = 0
    for cfg, cmd, want in EXPECTED:
        # two processes into two directories: identical config must give
        # byte-identical output files
        (rc, wall, first), (rc2, _, second) = (
            run(["ghd"], cfg, cmd, Path(f"out_smoke/{rep}/{cfg}/{cmd}")) for rep in "ab")
        differ = sorted(name for name in first.keys() | second.keys()
                        if first.get(name) != second.get(name))
        wrong += rc != want or rc2 != rc or bool(differ)
        print(f"{cfg:26} {cmd:18} exit {rc}/{rc2} (expected {want}) {wall:6.2f} s"
              f" {len(first)} files" + (f", differ: {differ}" if differ else ""))
    return 1 if wrong else 0


def max_diffs(new: Path, old: Path) -> tuple[str, str]:
    """Largest absolute difference, and largest difference scaled by
    max(1, |old value|), over the numeric fields of two tables; or why there
    is none."""
    if new.suffix not in (".csv", ".dat") or not (new.is_file() and old.is_file()):
        return "", ""
    fields = [path.read_text().replace(",", " ").split() for path in (new, old)]
    if len(fields[0]) != len(fields[1]):
        return "field count differs", ""
    worst = scaled = 0.0
    for a, b in zip(*fields):
        if a == b:
            continue
        try:
            diff = abs(float(a) - float(b))
        except ValueError:
            return "text differs", ""
        diff = diff if not math.isnan(diff) else math.inf
        worst = max(worst, diff)
        scaled = max(scaled, diff / max(1.0, abs(float(b))))
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


def compare(base: Path) -> int:
    envs = {"head": tree_env(ROOT), "base": tree_env(base)}
    rows = []
    for cfg, cmd, _ in EXPECTED:
        outs = {side: Path(f"out_compare/{side}/{cfg}/{cmd}") for side in envs}
        (rc, _, head), (rc_base, _, old) = (
            run([sys.executable, "-m", "ghd.cli"], cfg, cmd, outs[side], env)
            for side, env in envs.items())
        exits = f"{rc}/{rc_base}"
        if rc != rc_base:
            rows.append(f"| {cfg} | {cmd} | {exits} | (exit code) | | | | |")
        for name in sorted(head.keys() | old.keys()):
            if head.get(name) != old.get(name):
                new_sha, old_sha = (d.get(name, "missing")[:12] for d in (head, old))
                diff, scaled = max_diffs(outs["head"] / name, outs["base"] / name)
                rows.append(f"| {cfg} | {cmd} | {exits} | {name} | {new_sha} | {old_sha}"
                            f" | {diff} | {scaled} |")
    lines = [f"### Outputs against the base tree ({len(EXPECTED)} commands)", ""]
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
    return compare(args.base) if args.base else smoke()


if __name__ == "__main__":
    sys.exit(main())

"""Byte diff of every benchmark call between two source trees.

    python tools/bytediff.py PARENT_TREE CHANGE_TREE

Runs round 0 of every workload in CHANGE_TREE/perfbench/workloads.py (the spec
generator is read, not changed) for seeds 1 and 2 at FULL and TOY sizes: the 84
`ltvctl` calls of the benchmark, `check` on each of the 36 specs they read, and
one `self-check`: 121 calls, each given `--seed` as the benchmark gives it.
Every call runs in a fresh interpreter with one tree's src/ on PYTHONPATH, on
the same spec file, under a temporary directory that is removed afterwards.

For each call the exit code, stdout, stderr, report.json and every CSV are
compared byte for byte. A numeric field is a report.json key path with list
indices dropped, or a CSV column (numbered columns such as u_1, u_2 are one
field). For each field that moved, the table gives how many values moved, the
largest relative movement |b - a| / max(|a|, |b|), and the largest movement
relative to the field's largest parent magnitude in the same call (for an
eigenvalue list, |b - a| / lambda_max); the fields that did not move follow.
Exits 1 when an exit code differs.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

SEEDS = (1, 2)
RESULTS = ("exit", "stdout", "stderr")


def _workloads(tree: Path):
    spec = importlib.util.spec_from_file_location("workloads", tree / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["workloads"] = module  # its dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def _calls(tree: Path, specs_dir: Path) -> list[tuple[str, list[str]]]:
    """(label, argv after the output flag) for every call, with its spec file written."""
    wl = _workloads(tree)
    calls = [("none/self-check", ["self-check", "--seed", "1"])]
    for sizes_label, sizes in (("full", wl.FULL), ("toy", wl.TOY)):
        for seed in SEEDS:
            for name, workload in wl.WORKLOADS.items():
                for index in range(workload.round_size):
                    spec = workload.spec(seed, index, sizes)
                    path = specs_dir / f"{sizes_label}-{name}-{seed}-{index}.json"
                    wl.write_spec(spec, path)
                    for command, flags in [("check", ())] + [(call.command, call.flags)
                                                             for call in spec.calls]:
                        label = f"{sizes_label}/{name}/seed{seed}/{index}/{command}"
                        calls.append((label, [command, str(path), "--seed", str(seed),
                                              *flags]))
    return calls


def _run(tree: Path, calls, out_root: Path) -> dict[str, dict[str, bytes]]:
    """Every call on tree; per call its exit code, stdout, stderr and written files."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"),
                                                      env.get("PYTHONPATH")]))
    results = {}
    for i, (label, argv) in enumerate(calls):
        out = out_root / str(i)
        done = subprocess.run([sys.executable, "-m", "ltvcontrol.cli", *argv, "-o", str(out)],
                              env=env, capture_output=True, timeout=600)
        files = {"exit": str(done.returncode).encode(), "stdout": done.stdout,
                 "stderr": done.stderr}
        if out.is_dir():
            files.update((f.name, f.read_bytes()) for f in sorted(out.iterdir()))
        results[label] = files
    return results


def _numbers(name: str, blob: bytes) -> dict[str, list]:
    """Field -> values of one report.json (key paths, list indices dropped) or CSV."""
    fields = defaultdict(list)
    if name.endswith(".json"):
        def walk(node, path):
            if isinstance(node, dict):
                for key, value in node.items():
                    walk(value, f"{path}.{key}" if path else key)
            elif isinstance(node, list):
                for value in node:
                    walk(value, path + "[]")
            elif not isinstance(node, (bool, str)):
                fields[path].append(node)
        walk(json.loads(blob), "")
    elif name.endswith(".csv"):
        header, *rows = blob.decode().splitlines()
        for row in rows:
            for column, text in zip(header.split(","), row.split(",")):
                fields[re.sub(r"\d+$", "*", column)].append(float(text))  # u_1, u_2: u_*
    return fields


def _movement(a: list, b: list) -> tuple[int, float, float]:
    """(values moved, max relative movement, max movement over the largest |a|)."""
    if len(a) != len(b) or any((x is None) != (y is None) for x, y in zip(a, b)):
        return len(a), float("inf"), float("inf")
    pairs = [(x, y) for x, y in zip(a, b) if x is not None and x != y]
    scale = max((abs(x) for x in a if x is not None), default=0.0)
    rel = max((abs(y - x) / max(abs(x), abs(y)) for x, y in pairs), default=0.0)
    to_scale = max((abs(y - x) / scale if scale else float("inf") for x, y in pairs),
                   default=0.0)
    return len(pairs), rel, to_scale


def compare(parent: dict, change: dict) -> int:
    """Print the byte and numeric comparison; return the number of differing exit codes."""
    same = defaultdict(lambda: [0, 0])            # output name -> [identical, present]
    fields = defaultdict(lambda: [0, 0, 0.0, 0.0])  # field -> [moved, total, rel, to_scale]
    text_diffs = []
    exit_diffs = 0
    for label, a in parent.items():
        b = change[label]
        command = label.rsplit("/", 1)[1]
        exit_diffs += a["exit"] != b["exit"]
        for name in sorted(set(a) | set(b)):
            x, y = a.get(name), b.get(name)
            tally = same[name if name in RESULTS or name.endswith(".csv") else
                         f"{command} {name}"]
            tally[0] += x == y
            tally[1] += 1
            if name in RESULTS:
                if x != y:
                    text_diffs.append((label, name, x, y))
                continue
            if x is None or y is None:
                continue
            na, nb = _numbers(name, x), _numbers(name, y)
            for key in sorted(set(na) | set(nb)):
                moved, rel, to_scale = _movement(na.get(key, []), nb.get(key, []))
                entry = fields[f"{command} {name}:{key}"]
                entry[0] += moved
                entry[1] += len(na.get(key, []))
                entry[2] = max(entry[2], rel)
                entry[3] = max(entry[3], to_scale)

    print(f"calls: {len(parent)}   exit codes differ: {exit_diffs}")
    print("\nbyte-identical outputs:")
    for name, (identical, present) in sorted(same.items()):
        print(f"  {name:<40} {identical}/{present}")
    print(f"\n{'field that moved':<62} {'moved':>12} {'max rel':>9} {'max/scale':>9}")
    for key, (moved, total, rel, to_scale) in sorted(fields.items()):
        if moved:
            print(f"  {key:<60} {f'{moved}/{total}':>12} {rel:9.2g} {to_scale:9.2g}")
    print("\nfields that did not move:")
    for key, entry in sorted(fields.items()):
        if not entry[0]:
            print(f"  {key} ({entry[1]} values)")
    if text_diffs:
        print("\nexit codes, stdout and stderr that differ (parent, then change):")
        for label, name, x, y in text_diffs:
            print(f"  {label} {name}:\n    {x.decode().rstrip()}\n    {y.decode().rstrip()}")
    return exit_diffs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent_tree, change_tree = (Path(t).resolve() for t in argv)
    with tempfile.TemporaryDirectory(prefix="bytediff-") as tmp:
        tmp = Path(tmp)
        (tmp / "specs").mkdir()
        calls = _calls(change_tree, tmp / "specs")
        parent = _run(parent_tree, calls, tmp / "parent")
        change = _run(change_tree, calls, tmp / "change")
    return 1 if compare(parent, change) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

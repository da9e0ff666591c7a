"""Fail when a bench JSON regresses against a committed baseline.

The nightly workflow runs the full-size native bench, then compares the
fresh ``BENCH_native.json`` against the committed one::

    python benchmarks/check_regression.py BASELINE.json CURRENT.json

By default the comparison covers the shared-plane per-pass coordinator
overhead (``native.shared.*.coord_pass_s``) — the zero-copy data
plane's headline metric — and fails (exit 1) when any key grows more
than 25% over the baseline.  ``--prefix`` / ``--suffix`` retarget the
key selection, ``--keys-glob`` replaces it with a single
:mod:`fnmatch` pattern (e.g. ``'native.*.speedup_vs_serial'`` covers
the data-plane, IDD and mmap speedups in one invocation), and
``--threshold`` adjusts the allowed drift, so other benches can reuse
the checker.

``--worse`` names the bad direction for the selected keys: ``higher``
(the default — timings, where growth is a regression) or ``lower``
(speedups and ratios, where shrinkage is; the nightly workflow gates
``native.*.speedup_vs_serial`` this way).  Values that moved
in the *good* direction never fail: improvements are recorded by
committing the fresh JSON, not by this gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Dict, List, Optional

DEFAULT_PREFIX = "native.shared."
DEFAULT_SUFFIX = ".coord_pass_s"
DEFAULT_THRESHOLD = 0.25


def _load(path: Path) -> Dict[str, float]:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc}")
    except ValueError as exc:
        raise SystemExit(f"{path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise SystemExit(f"{path} must hold a JSON object of medians")
    return data


def compare(
    baseline: Dict[str, float],
    current: Dict[str, float],
    prefix: str = DEFAULT_PREFIX,
    suffix: str = DEFAULT_SUFFIX,
    threshold: float = DEFAULT_THRESHOLD,
    worse: str = "higher",
    keys_glob: Optional[str] = None,
) -> List[str]:
    """Return human-readable regression messages (empty = pass).

    ``worse`` is the direction that fails: ``"higher"`` for timings
    (values in seconds, printed as ms), ``"lower"`` for speedups and
    ratios (dimensionless, printed raw).  ``keys_glob``, when given,
    selects keys with one :func:`fnmatch.fnmatchcase` pattern and
    overrides ``prefix`` / ``suffix``.  A key present in the baseline
    but missing from the current run is a failure too — a silently
    dropped measurement must not read as green.
    """
    if worse not in ("higher", "lower"):
        raise ValueError(f"worse must be 'higher' or 'lower', got {worse!r}")
    if keys_glob is not None:
        keys = sorted(k for k in baseline if fnmatchcase(k, keys_glob))
        selection = keys_glob
    else:
        keys = sorted(
            k for k in baseline if k.startswith(prefix) and k.endswith(suffix)
        )
        selection = f"{prefix}*{suffix}"
    if not keys:
        return [
            f"baseline has no keys matching {selection} — "
            "nothing to check"
        ]
    problems: List[str] = []
    for key in keys:
        base = baseline[key]
        if key not in current:
            problems.append(f"{key}: missing from current run")
            continue
        value = current[key]
        drift = (value - base) / base if base > 0 else 0.0
        if worse == "higher":
            limit = base * (1.0 + threshold)
            failed = value > limit
            shown_base, shown_value = f"{base * 1e3:.2f}ms", f"{value * 1e3:.2f}ms"
            direction = "exceeds"
        else:
            limit = base * (1.0 - threshold)
            failed = value < limit
            shown_base, shown_value = f"{base:.3f}", f"{value:.3f}"
            direction = "falls below"
        status = "FAIL" if failed else "ok"
        print(
            f"  {status:>4}  {key}: baseline {shown_base} -> "
            f"current {shown_value} ({drift:+.1%}, worse={worse}, "
            f"limit {threshold:.0%})"
        )
        if failed:
            problems.append(
                f"{key}: {value:.6f} {direction} baseline {base:.6f} "
                f"by {abs(drift):.1%} (threshold {threshold:.0%}, "
                f"worse={worse})"
            )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare a bench JSON against a committed baseline."
    )
    parser.add_argument("baseline", type=Path, help="committed bench JSON")
    parser.add_argument("current", type=Path, help="freshly produced JSON")
    parser.add_argument(
        "--prefix", default=DEFAULT_PREFIX,
        help=f"key prefix to check (default {DEFAULT_PREFIX!r})",
    )
    parser.add_argument(
        "--suffix", default=DEFAULT_SUFFIX,
        help=f"key suffix to check (default {DEFAULT_SUFFIX!r})",
    )
    parser.add_argument(
        "--keys-glob", default=None, metavar="PATTERN",
        help=(
            "fnmatch pattern selecting keys (overrides --prefix/--suffix), "
            "e.g. 'native.*.speedup_vs_serial'"
        ),
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="allowed fractional drift from baseline (default 0.25)",
    )
    parser.add_argument(
        "--worse", choices=("higher", "lower"), default="higher",
        help=(
            "which direction fails: 'higher' for timings (default), "
            "'lower' for speedups/ratios"
        ),
    )
    args = parser.parse_args(argv)
    if args.threshold < 0:
        parser.error("--threshold must be >= 0")
    problems = compare(
        _load(args.baseline),
        _load(args.current),
        prefix=args.prefix,
        suffix=args.suffix,
        threshold=args.threshold,
        worse=args.worse,
        keys_glob=args.keys_glob,
    )
    if problems:
        print("\nregressions detected:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print("\nno regressions beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())

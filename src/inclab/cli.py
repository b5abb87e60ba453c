"""Command-line front end: experiment orchestration and report emission.

Every command writes a CSV of rows and a JSON summary with per-rule pass
booleans into the output directory (atomically: temp file, then rename),
and exits 0 when all checks pass, 1 when a check fails, 2 on invalid
configuration.  All randomness flows from --seed, so identical invocations
produce byte-identical artifacts.
"""

import argparse
import concurrent.futures
import csv
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import content as ct
from . import experiments as ex
from . import measures as ms
from .geometry import PLANE
from .measures import PointSet

FORMATS = ("csv", "json", "both")
MAX_GRID_N = 512  # the desk grid side; transforms cost O(n^3)
# each delta is one more pass of a command's work; the desk lists have 5
MAX_DELTAS = 16


def _parse_deltas(text):
    bad = argparse.ArgumentTypeError(f"bad delta list: {text!r}")
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            if "^" in tok:
                base, expo = tok.split("^")
                out.append(math.pow(float(base), float(expo)))
            else:
                out.append(float(tok))
        except (ValueError, OverflowError):
            raise bad from None
    if not out or not all(math.isfinite(d) and d > 0 for d in out):
        raise bad
    if len(out) > MAX_DELTAS:
        raise argparse.ArgumentTypeError(
            f"{len(out)} deltas, above MAX_DELTAS = {MAX_DELTAS}")
    return tuple(out)


def _int_at_least(low, rule):
    """argparse type: an int of at least `low`, else exit 2 naming `rule`."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {rule}: {text!r}")
        return value
    parse.__name__ = "int"  # argparse's "invalid int value" for a non-int
    return parse


def _rows_to_csv(rows):
    """CSV text; the header is every key in order of first appearance, a
    row without a key leaves its cell empty, and a cell holding a comma or
    a quote is quoted."""
    text = io.StringIO()
    keys = dict.fromkeys(k for r in rows for k in r)
    writer = csv.DictWriter(text, list(keys), restval="", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return text.getvalue()


def _write_atomic(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _emit(out_dir, name, rows, summary, fmt):
    out = Path(out_dir)
    if fmt in ("csv", "both"):
        _write_atomic(out / f"{name}.csv", _rows_to_csv(rows))
    if fmt in ("json", "both"):
        _write_atomic(out / f"{name}_summary.json",
                      json.dumps(summary, indent=2, sort_keys=True,
                                 default=str) + "\n")


def _content_fixture_rows():
    """Canonical hand-checkable content fixtures for the report."""
    k = 6
    delta = 2.0 ** -k
    ix0 = round(2.0 / delta)
    row_set = PointSet(PLANE, delta, np.arange(ix0, ix0 + 2 ** k),
                       np.full(2 ** k, ix0))
    full = ms.generate_cantor_measure(2.0, delta, seed=0,
                                      window=(0.0, 1.0, 0.0, 1.0)).support()
    rows = []
    for name, cells, s, expect in (("bottom_row", row_set, 1.0, 1.0),
                                   ("bottom_row", row_set, 2.0, delta),
                                   ("unit_square", full, 2.0, 1.0)):
        res = ct.dyadic_content(cells, s)
        rows.append({"fixture": name, "s": s, "value": res.value,
                     "expected": expect,
                     "cover_size": sum(map(len, res.cover.values())),
                     "exact": res.value == expect})
    return rows


def cmd_content(args):
    fixture_rows = _content_fixture_rows()
    rows, summary = ex.exp_content(seed=args.seed)
    summary["fixtures_exact"] = bool(all(r["exact"] for r in fixture_rows))
    summary["pass"] = bool(summary["pass"] and summary["fixtures_exact"])
    return fixture_rows + rows, summary


def _given(**params):
    """The keyword arguments that are not None: a flag the user left unset
    is not passed on, so the experiment's own default holds."""
    return {k: v for k, v in params.items() if v is not None}


def cmd_incidence_sweep(args):
    rows, summary = ex.exp_incidence_sweep(
        seed=args.seed, t_values=(1.5 if args.t is None else args.t,),
        n_seeds=1, **_given(deltas=args.deltas))
    flat = summary["fixtures"][0]
    flat["pass"] = summary["pass"]
    return rows, flat


def cmd_energy(args):
    s_values = None if args.s is None else (args.s,)
    return ex.exp_energy(seed=args.seed, **_given(s_values=s_values,
                                                  deltas=args.deltas))


def _grid_side(n, low):
    """--n as a keyword argument, if given and a power of two in range."""
    if n is not None and (not low <= n <= MAX_GRID_N or n & (n - 1)):
        raise ValueError(f"--n must be a power of two from {low} to {MAX_GRID_N}")
    return _given(n=n)


def cmd_xray_check(args):
    # xray-check also builds a grid of side n/2, and a grid side is at least 16
    return ex.exp_xray_check(seed=args.seed, **_grid_side(args.n, 32))


def cmd_smoothing(args):
    return ex.exp_smoothing(seed=args.seed, **_grid_side(args.n, 16))


def cmd_furstenberg(args):
    if (args.s is None) != (args.t is None):
        raise ValueError("furstenberg needs --s and --t together, or none")
    fixtures = None if args.s is None else ((args.s, args.t),)
    return ex.exp_furstenberg(seed=args.seed, **_given(
        fixtures=fixtures, deltas=args.deltas))


def cmd_slicing(args):
    return ex.exp_slicing(seed=args.seed, **_given(
        s=args.s, t=args.t, tau=args.tau, deltas=args.deltas))


def cmd_radial(args):
    if args.deltas is not None and len(args.deltas) > 1:
        raise ValueError("radial takes a single delta")
    delta = args.deltas[0] if args.deltas else None
    return ex.exp_radial(seed=args.seed, **_given(
        s=args.s, t=args.t, sigma=args.sigma, delta=delta))


def cmd_verify(args):
    def run_one(entry):
        name, func, params = entry
        return name, func(seed=args.seed, **params[args.scale])

    with concurrent.futures.ThreadPoolExecutor(args.threads) as pool:
        # map yields in plan order, so outputs do not depend on completion order
        results = list(pool.map(run_one, ex.VERIFY_PLAN))

    table = []
    for name, (rows, summary) in results:
        _emit(args.out, f"verify_{name}", rows, summary, args.format)
        table.append({"experiment": name, "pass": summary["pass"]})
        print(f"{name:24s} {'PASS' if summary['pass'] else 'FAIL'}")
    all_pass = all(t["pass"] for t in table)
    overall = {"scale": args.scale, "seed": args.seed,
               "experiments": table, "pass": all_pass}
    _emit(args.out, "verify", table, overall, args.format)
    return None, overall


# each command's function and the flags it reads besides --config, --out,
# --seed and --format
COMMANDS = {
    "energy": (cmd_energy, ("s", "deltas")),
    "incidence-sweep": (cmd_incidence_sweep, ("t", "deltas")),
    "xray-check": (cmd_xray_check, ("n",)),
    "smoothing": (cmd_smoothing, ("n",)),
    "content": (cmd_content, ()),
    "furstenberg": (cmd_furstenberg, ("s", "t", "deltas")),
    "slicing": (cmd_slicing, ("s", "t", "tau", "deltas")),
    "radial": (cmd_radial, ("s", "t", "sigma", "deltas")),
    "verify": (cmd_verify, ("scale", "threads")),
}


def build_parser():
    """One subparser per command, declaring only the flags that command
    reads; abbreviated flags are rejected."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file of flat key/value defaults")
    common.add_argument("--out", default="out")
    common.add_argument("--seed", type=_int_at_least(0, "non-negative"),
                        default=0)
    common.add_argument("--format", choices=FORMATS, default="both")
    flags = {
        "deltas": dict(type=_parse_deltas,
                       help="comma list, e.g. '2^-5,2^-6' or '0.03125'"),
        # a string default goes through type too, so a bad value exits 2
        "threads": dict(type=_int_at_least(1, "at least 1"),
                        default=os.environ.get("INCLAB_THREADS", "1"),
                        help="default: $INCLAB_THREADS, else 1"),
        "t": dict(type=float),
        "s": dict(type=float),
        "tau": dict(type=float),
        "sigma": dict(type=float),
        "n": dict(type=int),
        "scale": dict(choices=("desk", "quick"), default="desk"),
    }
    p = argparse.ArgumentParser(
        prog="inclab", allow_abbrev=False,
        description="discretized incidence-geometry experiments")
    commands = p.add_subparsers(dest="command", required=True)
    for command, (_, read) in sorted(COMMANDS.items()):
        cp = commands.add_parser(command, parents=[common], allow_abbrev=False)
        for flag in read:
            cp.add_argument(f"--{flag}", **flags[flag])
    return p


def parse_args(argv=None):
    """The parsed command line.  A --config file's entries are read as
    flags written before the command line's own, so explicit flags win."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config:
        try:
            blob = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise ValueError(f"cannot read config: {e}")
        if not isinstance(blob, dict):
            raise ValueError("config must be a flat JSON object")
        read = ("out", "seed", "format") + COMMANDS[args.command][1]
        for key in blob:
            if key not in read:
                raise ValueError(
                    f"config key {key}: not a flag {args.command} reads")
        # --key=value: a value starting with '-' is not read as a flag
        args = parser.parse_args(
            [args.command] + [f"--{k}={v}" for k, v in blob.items()]
            + argv[argv.index(args.command) + 1:])
    # the nearest existing path at or above --out must be a directory
    out = Path(args.out)
    found = next(p for p in (out, *out.parents) if p.exists() or p.is_symlink())
    if not found.is_dir():
        raise ValueError(f"--out {args.out}: {found} is not a directory")
    return args


def main(argv=None):
    try:
        args = parse_args(argv)
        rows, summary = COMMANDS[args.command][0](args)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    except ValueError as e:
        print(f"invalid config: {e}", file=sys.stderr)
        return 2

    if args.command != "verify":
        _emit(args.out, args.command.replace("-", "_"), rows or [],
              summary, args.format)
        print(json.dumps(summary, indent=2, sort_keys=True, default=str))
    return 0 if summary["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())

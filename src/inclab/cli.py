"""Command-line front end: experiment orchestration and report emission.

Every command writes a CSV of rows and a JSON summary with per-rule pass
booleans into the output directory (atomically: temp file, then rename),
and exits 0 when all checks pass, 1 when a check fails, 2 on invalid
configuration.  All randomness flows from --seed, so identical invocations
produce byte-identical artifacts.
"""

import argparse
import concurrent.futures
import json
import math
import os
import sys
from pathlib import Path

from . import content as ct
from . import experiments as ex
from . import measures as ms
from .geometry import PLANE
from .measures import PointSet

FORMATS = ("csv", "json", "both")
MAX_GRID_N = 512  # the desk grid side; transforms cost O(n^3)


def _parse_deltas(text):
    bad = ValueError(f"bad delta list: {text!r}")
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
    return tuple(out)


def _rows_to_csv(rows):
    """CSV text; the header is every key in order of first appearance, and
    a row without a key leaves its cell empty."""
    if not rows:
        return "\n"
    keys = list(dict.fromkeys(k for r in rows for k in r))
    lines = [",".join(keys)]
    for r in rows:
        lines.append(",".join(_csv_cell(r[k]) if k in r else "" for k in keys))
    return "\n".join(lines) + "\n"


def _csv_cell(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


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
    rows = []
    k = 6
    delta = 2.0 ** -k
    ix0 = round(2.0 / delta)
    import numpy as np
    row_set = PointSet(PLANE, delta, np.arange(ix0, ix0 + 2 ** k),
                       np.full(2 ** k, ix0))
    for s, expect in ((1.0, 1.0), (2.0, delta)):
        res = ct.dyadic_content(row_set, s)
        rows.append({"fixture": "bottom_row", "s": s, "value": res.value,
                     "expected": expect, "cover_size": len(res.cover),
                     "exact": res.value == expect})
    full = ms.generate_cantor_measure(2.0, delta, seed=0,
                                      window=(0.0, 1.0, 0.0, 1.0)).support()
    res = ct.dyadic_content(full, 2.0)
    rows.append({"fixture": "unit_square", "s": 2.0, "value": res.value,
                 "expected": 1.0, "cover_size": len(res.cover),
                 "exact": res.value == 1.0})
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


def cmd_xray_check(args):
    return ex.exp_xray_check(seed=args.seed, **_given(n=args.n))


def cmd_smoothing(args):
    return ex.exp_smoothing(seed=args.seed, **_given(n=args.n))


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
    scale = args.scale or "desk"

    def run_one(entry):
        name, func, params = entry
        return name, func(seed=args.seed, **params[scale])

    workers = max(1, args.threads)
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        # map yields in plan order, so outputs do not depend on completion order
        results = list(pool.map(run_one, ex.VERIFY_PLAN))

    table = []
    for name, (rows, summary) in results:
        _emit(args.out, f"verify_{name}", rows, summary, args.format)
        table.append({"experiment": name, "pass": summary["pass"]})
        print(f"{name:24s} {'PASS' if summary['pass'] else 'FAIL'}")
    all_pass = all(t["pass"] for t in table)
    overall = {"scale": scale, "seed": args.seed,
               "experiments": table, "pass": all_pass}
    _emit(args.out, "verify", table, overall, args.format)
    return None, overall


COMMANDS = {
    "energy": cmd_energy,
    "incidence-sweep": cmd_incidence_sweep,
    "xray-check": cmd_xray_check,
    "smoothing": cmd_smoothing,
    "content": cmd_content,
    "furstenberg": cmd_furstenberg,
    "slicing": cmd_slicing,
    "radial": cmd_radial,
    "verify": cmd_verify,
}


# the flags each command reads besides --config, --out, --seed and --format
FLAGS_READ = {
    "energy": ("s", "deltas"),
    "incidence-sweep": ("t", "deltas"),
    "xray-check": ("n",),
    "smoothing": ("n",),
    "content": (),
    "furstenberg": ("s", "t", "deltas"),
    "slicing": ("s", "t", "tau", "deltas"),
    "radial": ("s", "t", "sigma", "deltas"),
    "verify": ("scale", "threads"),
}
ALL_READ = ("help", "command", "config", "out", "seed", "format")


def _check_flags_read(args, parser):
    """Reject a flag given on the command line that the command never reads."""
    read = ALL_READ + FLAGS_READ[args.command]
    for action in parser._actions:
        if (action.dest not in read
                and getattr(args, action.dest) != action.default):
            raise ValueError(f"{args.command} does not take --{action.dest}")


def build_parser():
    p = argparse.ArgumentParser(
        prog="inclab",
        description="discretized incidence-geometry experiments")
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("--config", type=str, default=None,
                   help="JSON file of flat key/value defaults")
    p.add_argument("--out", type=str, default="out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deltas", type=str, default=None,
                   help="comma list, e.g. '2^-5,2^-6' or '0.03125'")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--format", choices=FORMATS, default="both")
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--scale", choices=("desk", "quick"), default=None)
    return p


def _config_value(action, key, val):
    """A config value passed through the type and choices of its flag."""
    bad = ValueError(f"config key {key}: bad value {val!r}")
    if action.type is not None:
        try:
            val = action.type(str(val))
        except ValueError:
            raise bad from None
    if action.choices is not None and val not in action.choices:
        raise bad
    return val


def _apply_config(args, parser):
    if args.config:
        try:
            blob = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise ValueError(f"cannot read config: {e}")
        if not isinstance(blob, dict):
            raise ValueError("config must be a flat JSON object")
        read = ALL_READ + FLAGS_READ[args.command]
        actions = {a.dest: a for a in parser._actions
                   if a.dest in read and hasattr(args, a.dest)}
        for key, val in blob.items():
            if key not in actions:
                raise ValueError(
                    f"config key {key}: not a flag {args.command} reads")
            # command line wins over the config file
            if getattr(args, key) == actions[key].default:
                setattr(args, key, _config_value(actions[key], key, val))
    if isinstance(args.deltas, str):
        args.deltas = _parse_deltas(args.deltas)
    if args.threads is None:
        args.threads = int(os.environ.get("INCLAB_THREADS", "1"))
    # xray-check also builds a grid of side n/2, and a grid side is at least 16
    low = 32 if args.command == "xray-check" else 16
    if args.n is not None and (not low <= args.n <= MAX_GRID_N
                               or args.n & (args.n - 1)):
        raise ValueError(
            f"--n must be a power of two from {low} to {MAX_GRID_N}")
    return args


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        _check_flags_read(args, parser)
        args = _apply_config(args, parser)
    except ValueError as e:
        print(f"invalid config: {e}", file=sys.stderr)
        return 2

    try:
        rows, summary = COMMANDS[args.command](args)
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

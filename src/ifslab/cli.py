"""Command-line front end.

Subcommands: ``run`` (scenario configs), ``omega`` (recluster an orbit dump),
``driver gen`` / ``driver audit``, ``kaczmarz``, and ``presets``.

Exit codes: 0 all requested checks pass, 1 some check failed, 2 parse or
validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import clouds, drivers, fileio, geometry, kaczmarz, omega, scenarios
from .errors import IfsLabError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2


def _cmd_run(args):
    text = Path(args.config).read_text()
    with scenarios._at(args.config):
        config = json.loads(text)
    scenario = scenarios.scenario_from_dict(config)
    result = scenarios.run_scenario(scenario)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = scenario.name
    fileio.write_orbit_csv(out_dir / f"{stem}.orbit.csv", result.orbit)
    fileio.write_json(out_dir / f"{stem}.omega.json", result.estimate.to_dict())
    fileio.write_json(out_dir / f"{stem}.report.json", result.to_dict())
    if scenario.system.dim == 2 and not args.no_svg:
        fileio.render_svg_scatter(out_dir / f"{stem}.svg",
                                  result.orbit.tail(scenario.burn_in),
                                  result.estimate.representatives.points,
                                  _distinct=result.orbit.distinct_rows(scenario.burn_in))

    for check in result.checks:
        status = "pass" if check["passed"] else "FAIL"
        print(f"{stem}: check {check['kind']}: {status}")
    print(f"{stem}: representatives={result.representative_count} "
          f"files written to {out_dir}")
    return EXIT_OK if result.passed else EXIT_CHECK_FAILED


def _cmd_omega(args):
    clouds.tolerance_of(args.eps, "--eps", positive=True)
    orbit = fileio.read_orbit_csv(args.orbit)
    with scenarios._at("--burn-in"):
        orbit.check_burn_in(args.burn_in)
    estimate = omega.estimate_omega(orbit, burn_in=args.burn_in, cluster_eps=args.eps)
    payload = estimate.to_dict()
    if args.out:
        fileio.write_json(args.out, payload)
    else:
        print(json.dumps(payload, indent=2, allow_nan=False))
    return EXIT_OK


def _listed(text, parse, option):
    """A comma-separated option value parsed item by item, or None if unset."""
    with scenarios._at(option):
        return [parse(s) for s in text.split(",")] if text else None


# Each driver option and the driver config key it sets.
DRIVER_OPTIONS = (("--seed", "seed"), ("--perm", "permutation"),
                  ("--weights", "weights"), ("--symbols", "symbols"))


def _driver_from_args(args, n_maps):
    """The driver the options name, built by the same code as config drivers."""
    if args.alphabet is not None:
        clouds.count_of(args.alphabet, "--alphabet", low=1)
    for option, key in DRIVER_OPTIONS:
        if getattr(args, option[2:]) is not None and key not in scenarios.DRIVER_KEYS[args.kind]:
            raise scenarios.ScenarioError(f"{option}: the {args.kind} driver does not read it")
    d = {"kind": args.kind, "seed": args.seed,
         "permutation": _listed(args.perm, int, "--perm"),
         "weights": _listed(args.weights, float, "--weights"),
         "symbols": _listed(args.symbols, int, "--symbols")}
    return scenarios.driver_from_dict({k: v for k, v in d.items() if v is not None},
                                      n_maps, "driver", args.alphabet)


def _cmd_driver_gen(args):
    spec = _driver_from_args(args, None)
    symbols = drivers.generate(spec, args.n)
    print(" ".join(str(int(s)) for s in symbols))
    if args.out:
        Path(args.out).write_text("\n".join(str(int(s)) for s in symbols) + "\n")
    return EXIT_OK


def _read_sequence(path):
    """The symbols, below 2**63, of a file with one per line; blank lines are skipped."""
    symbols = []
    for n, line in enumerate(Path(path).read_text().splitlines(), 1):
        text = line.strip()
        if text.isdecimal() and int(text) < 1 << 63:
            symbols.append(int(text))
        elif text:
            raise scenarios.ScenarioError(f"{path}, line {n}: not an int64 symbol: {text!r}")
    return symbols


def _cmd_driver_audit(args):
    seq = _read_sequence(args.sequence)
    report = drivers.check_disjunctive(seq, args.m, alphabet_size=args.alphabet)
    counts = drivers.check_repetitive(seq, alphabet_size=report.alphabet_size)
    print(f"prefix length {report.prefix_length}, alphabet {report.alphabet_size}")
    print(f"disjunctivity at m={report.window_length}: "
          f"{report.found}/{report.total_words} words found")
    if report.warning:
        print(f"warning: {report.warning}")
    if report.missing_count:
        shown = ", ".join("(" + ",".join(map(str, w)) + ")" for w in report.missing)
        more = "" if report.missing_count <= len(report.missing) \
            else f" (+{report.missing_count - len(report.missing)} more)"
        print(f"missing words: {shown}{more}")
    print("symbol counts: " + ", ".join(
        f"{i + 1}:{c}" for i, c in enumerate(counts.counts)))
    if counts.absent:
        print(f"absent symbols (prefix not repetitive): {list(counts.absent)}")
    if args.out:
        fileio.write_json(args.out, {"disjunctivity": report.to_dict(),
                                     "repetition": counts.to_dict()})
    ok = report.complete and not counts.absent
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_kaczmarz(args):
    clouds.tolerance_of(args.tol, "--tol", positive=True)
    clouds.count_of(args.max_iter, "--max-iter", low=1)
    system = fileio.read_linear_system_csv(args.system)
    spec = _driver_from_args(args, system.n_rows)
    with scenarios._at("--x0"):
        x0 = geometry.as_vector(args.x0.split(","), system.dim, "start point") if args.x0 else None
    report = kaczmarz.solve(system, spec, tol=args.tol, max_iter=args.max_iter, x0=x0)
    payload = report.to_dict()
    if args.out:
        fileio.write_json(args.out, payload)
    print(json.dumps(payload, indent=2, allow_nan=False))
    return EXIT_OK


def _cmd_presets(args):
    if args.action == "list":
        for name in scenarios.PRESET_NAMES:
            print(name)
        return EXIT_OK
    config = scenarios.preset_config(args.name)
    text = json.dumps(config, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ifslab",
        description="Iterate nonexpansive IFSs under controllable drivers and "
                    "verify invariance properties of omega-limit estimates.")
    sub = parser.add_subparsers(dest="command", required=True)

    driver_opts = argparse.ArgumentParser(add_help=False)
    driver_opts.add_argument("--alphabet", type=int,
                             help="alphabet size N (kaczmarz default: row count)")
    driver_opts.add_argument("--seed", type=int, help="seed for iid drivers")
    driver_opts.add_argument("--weights", help="comma-separated iid weights")
    driver_opts.add_argument("--perm", help="comma-separated cyclic permutation of 1..N")
    driver_opts.add_argument("--symbols", help="comma-separated custom symbols")

    p_run = sub.add_parser("run", help="run a scenario config and its checks")
    p_run.add_argument("config", help="scenario config (JSON)")
    p_run.add_argument("--out-dir", default=".", help="directory for emitted files")
    p_run.add_argument("--no-svg", action="store_true", help="skip the SVG scatter")
    p_run.set_defaults(func=_cmd_run)

    p_omega = sub.add_parser("omega", help="recluster an orbit CSV dump")
    p_omega.add_argument("orbit", help="orbit CSV written by `run`")
    p_omega.add_argument("--burn-in", type=int, required=True)
    p_omega.add_argument("--eps", type=float, required=True)
    p_omega.add_argument("--out", help="write the omega JSON here instead of stdout")
    p_omega.set_defaults(func=_cmd_omega)

    p_driver = sub.add_parser("driver", help="generate or audit driving sequences")
    driver_sub = p_driver.add_subparsers(dest="action", required=True)

    p_gen = driver_sub.add_parser("gen", help="emit driver symbols", parents=[driver_opts])
    p_gen.add_argument("--kind", required=True,
                       choices=list(scenarios.DRIVER_KEYS))
    p_gen.add_argument("--n", type=int, required=True, help="number of symbols")
    p_gen.add_argument("--out", help="also write one symbol per line to this file")
    p_gen.set_defaults(func=_cmd_driver_gen)

    p_audit = driver_sub.add_parser("audit", help="audit a sequence file")
    p_audit.add_argument("sequence", help="file with one 1-based symbol per line")
    p_audit.add_argument("--m", type=int, required=True, help="window length")
    p_audit.add_argument("--alphabet", type=int, help="alphabet size (default: max symbol)")
    p_audit.add_argument("--out", help="write the audit report JSON here")
    p_audit.set_defaults(func=_cmd_driver_audit)

    p_kacz = sub.add_parser("kaczmarz", help="solve a linear system by row projections",
                            parents=[driver_opts])
    p_kacz.add_argument("system", help="system CSV: a1,...,ad,b per row")
    p_kacz.add_argument("--driver", dest="kind", default="cyclic",
                        choices=list(scenarios.DRIVER_KEYS))
    p_kacz.add_argument("--tol", type=float, default=1e-10)
    p_kacz.add_argument("--max-iter", type=int, default=100_000)
    p_kacz.add_argument("--x0", help="comma-separated start point (default: origin)")
    p_kacz.add_argument("--out", help="write the solve report JSON here")
    p_kacz.set_defaults(func=_cmd_kaczmarz)

    p_presets = sub.add_parser("presets", help="list or emit the figure presets")
    preset_sub = p_presets.add_subparsers(dest="action", required=True)
    p_list = preset_sub.add_parser("list", help="list preset names")
    p_list.set_defaults(func=_cmd_presets)
    p_write = preset_sub.add_parser("write", help="emit a preset config")
    p_write.add_argument("name")
    p_write.add_argument("--out", help="write the config here instead of stdout")
    p_write.set_defaults(func=_cmd_presets)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IfsLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

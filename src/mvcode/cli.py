"""Command-line entry point: verify | table | fixtures | roundtrip | oracle.

Exit codes: 0 success, 1 verification/round-trip mismatch, 2 bad
configuration, regime violation, exceeded budget or a run out of memory.
Flags mirror the system tuple (--n --cw --cr --nu --h --K) so runs read
like the parameter lists in the reports they produce.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .allocation import Scheme
from .codec import encode_all, quorum_decode, stores_from_json, stores_to_json
from .errors import CodecError, MvcodeError
from .model import Params, SystemState, latest_complete, random_state, seeded_words
from .verifier import VerifyMode, random_payloads, verify

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2


def _add_param_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--n", type=int, required=True, help="server count")
    sp.add_argument("--cw", type=int, required=True, help="write quorum size")
    sp.add_argument("--cr", type=int, required=True, help="read quorum size")
    sp.add_argument("--nu", type=int, default=2, help="number of versions")
    sp.add_argument("--h", type=int, default=0, help="side-information radius")
    sp.add_argument("--K", type=int, default=1024, dest="k_bits",
                    help="message length in bits")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mvcode")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="check a scheme over all or sampled states")
    _add_param_flags(sp)
    sp.add_argument("--scheme", choices=[s.value for s in Scheme], required=True)
    sp.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    sp.add_argument("--samples", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--layers", default="counting,bitexact",
                    help="comma-separated: counting,bitexact")
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--max-violations", type=int, default=100)
    sp.add_argument("--out", default="")

    sp = sub.add_parser("table", help="emit the cost/bound comparison table")
    sp.add_argument("--nu", type=int, default=2)
    sp.add_argument("--c", required=True, help="inclusive range lo:hi")
    sp.add_argument("--K", type=int, default=1024, dest="k_bits")
    sp.add_argument("--format", choices=["json", "csv"], default="csv", dest="fmt")
    sp.add_argument("--out", default="")

    sp = sub.add_parser("fixtures", help="materialize an indistinguishability pair")
    sp.add_argument("--which", choices=["thm3", "thm4"], required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--c", type=int, default=3, help="quorum overlap (thm4 only)")
    sp.add_argument("--h", type=int, default=None)
    sp.add_argument("--K", type=int, default=1024, dest="k_bits")
    sp.add_argument("--out", default="")

    sp = sub.add_parser("roundtrip", help="encode payloads, decode them back, compare")
    _add_param_flags(sp)
    sp.add_argument("--scheme", choices=[s.value for s in Scheme], required=True)
    sp.add_argument("--state", default="", help="state JSON file")
    sp.add_argument("--state-seed", type=int, default=0)
    sp.add_argument("--payloads", nargs="*", default=[],
                    help="one raw file per version (K/8 bytes each)")
    sp.add_argument("--payload-seed", type=int, default=0)
    sp.add_argument("--read-set", default="", help="comma-separated server ids")
    sp.add_argument("--read-seed", type=int, default=0)
    sp.add_argument("--stores-out", default="")
    sp.add_argument("--stores-in", default="")

    sp = sub.add_parser("oracle", help="search the cheapest allocation strategy")
    _add_param_flags(sp)
    sp.add_argument("--G", type=int, required=True, dest="g",
                    help="allocation granularity: units of K/G")
    sp.add_argument("--max-g", type=int, default=4,
                    help="granularity budget override")
    return parser


def _params(args: argparse.Namespace) -> Params:
    return Params(n=args.n, cw=args.cw, cr=args.cr,
                  nu=args.nu, h=args.h, k_bits=args.k_bits)


def _write_or_print(text: str, out: str) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_verify(args: argparse.Namespace) -> int:
    p = _params(args)
    scheme = Scheme(args.scheme)
    if args.mode == "exhaustive":
        mode = VerifyMode.exhaustive(seed=args.seed)
    else:
        mode = VerifyMode.sampled(args.samples, args.seed)
    layers = tuple(s.strip() for s in args.layers.split(",") if s.strip())
    report = verify(scheme, p, mode, layers=layers, jobs=args.jobs,
                    max_violations=args.max_violations, budget=args.budget)
    if args.out:
        Path(args.out).write_text(report.to_json(), encoding="utf-8")
    print(f"scheme={report.scheme} states={report.states_checked} "
          f"read_sets={report.read_sets_per_state} violations={report.violations_total} "
          f"worst_case_bits={float(report.worst_case_bits)} "
          f"alpha_bits={float(report.alpha_bits)} elapsed_s={report.elapsed_s:.2f}")
    return EXIT_OK if report.passed else EXIT_VIOLATION


def cmd_table(args: argparse.Namespace) -> int:
    from . import bounds

    lo, _, hi = args.c.partition(":")
    c_lo, c_hi = int(lo), int(hi if hi else lo)
    rows = bounds.compare_report(c_lo, c_hi, args.nu, args.k_bits)
    text = bounds.rows_to_csv(rows) if args.fmt == "csv" else bounds.rows_to_json(rows)
    _write_or_print(text, args.out)
    return EXIT_OK


def cmd_fixtures(args: argparse.Namespace) -> int:
    from .fixtures import (check_indistinguishable, fixture_thm3, fixture_thm4,
                           make_thm3_params, make_thm4_params, thm3_read_sets,
                           thm4_l_choices, thm4_read_sets)

    if args.which == "thm3":
        p = make_thm3_params(args.n, args.k_bits)
        pair = fixture_thm3(p)
        r1, r2 = thm3_read_sets(p)
        read_doc = {"r1": list(r1), "r2": list(r2)}
    else:
        p = make_thm4_params(args.n, args.c, args.k_bits, h=args.h)
        pair = fixture_thm4(p)
        read_doc = {}
        for l in dict.fromkeys(thm4_l_choices(p.c)):
            r1, r2 = thm4_read_sets(p, l)
            read_doc[f"l={l}"] = {"r1": list(r1), "r2": list(r2)}
    problems = check_indistinguishable(pair, p)
    doc = {
        "which": args.which,
        "params": p.to_dict(),
        "s1": json.loads(pair.s1.to_json()),
        "s2": json.loads(pair.s2.to_json()),
        "indistinguishable": sorted(pair.indistinguishable),
        "latest_complete": {"s1": latest_complete(pair.s1, p),
                            "s2": latest_complete(pair.s2, p)},
        "required_decodes": {k: sorted(v) for k, v in pair.required_decodes.items()},
        "read_sets": read_doc,
        "check_ok": not problems,
        "problems": problems,
    }
    _write_or_print(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK if not problems else EXIT_VIOLATION


def cmd_roundtrip(args: argparse.Namespace) -> int:
    p = _params(args)
    scheme = Scheme(args.scheme)
    if p.k_bits % 8 != 0:
        raise CodecError(f"round-trips need byte-aligned K, got {p.k_bits}")

    if args.state:
        S = SystemState.from_json(Path(args.state).read_text(), p)
    else:
        S = random_state(p, args.state_seed)

    if args.payloads:
        if len(args.payloads) != p.nu:
            raise CodecError(f"expected {p.nu} payload files, got {len(args.payloads)}")
        messages = {u: Path(f).read_bytes() for u, f in zip(p.versions, args.payloads)}
        for u, msg in messages.items():
            if len(msg) != p.k_bits // 8:
                raise CodecError(
                    f"payload for version {u} is {len(msg)} bytes, expected {p.k_bits // 8}")
    else:
        messages = random_payloads(p, args.payload_seed)

    if args.stores_in:
        stores = stores_from_json(Path(args.stores_in).read_text())
        missing = [i for i in range(p.n) if i not in stores]
        if missing:
            raise CodecError(f"store file lacks servers {missing}")
    else:
        stores = encode_all(scheme, S, messages, p)
    if args.stores_out:
        Path(args.stores_out).write_text(stores_to_json(stores), encoding="utf-8")

    if args.read_set:
        T = tuple(int(x) for x in args.read_set.split(","))
    else:
        words = seeded_words([args.read_seed], 0, p.n)[0]  # one word per server
        T = tuple(sorted(words.argsort(kind="stable")[:p.cr].tolist()))

    result = quorum_decode(scheme, S, T, stores, p)
    if result is None:
        print(f"read_set={list(T)} decoded=null (no complete version)")
        return EXIT_OK
    m, payload = result
    if payload == messages[m]:
        print(f"read_set={list(T)} decoded_version={m} match=true")
        return EXIT_OK
    print(f"read_set={list(T)} decoded_version={m} match=false")
    return EXIT_VIOLATION


def cmd_oracle(args: argparse.Namespace) -> int:
    from . import bounds
    from .oracle import oracle_min_cost  # scipy loads only if it must solve

    p = _params(args)
    value = oracle_min_cost(p, args.g, max_g=args.max_g)
    lo = bounds.lb_eq1(p.k_bits, p.nu, p.c)
    hi = bounds.cost_baseline(p.k_bits, p.nu, p.c)
    print(f"oracle_min_cost={value.numerator}/{value.denominator} "
          f"({float(value)} bits) lb_eq1={lo:.4f} baseline={float(hi)}")
    return EXIT_OK


_COMMANDS = {
    "verify": cmd_verify,
    "table": cmd_table,
    "fixtures": cmd_fixtures,
    "roundtrip": cmd_roundtrip,
    "oracle": cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (MvcodeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_CONFIG


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()

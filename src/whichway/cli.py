"""Command-line front end.

Subcommands
-----------
vg                   generalized visibility for a channel and preparation
distinguishability   which-way distinguishability of the environment states
verify               both quantities plus the trade-off slack 1 - D^2 - V_G^2
table                theory grid of filtering probabilities and fractional
                     visibilities for the four-unitary noise mixture
reproduce            full pipeline: simulate (or ingest measured records via
                     --from-csv), fit, and print the visibility/which-way
                     bounds that bounds.certify_run returns

Channel grammar (--channel): identity | transpose | pauli | replace[:STATE]
| random:K:SEED | file:PATH. Preparation grammar (--prep): pure:S0,S1 |
mixed | ensemble:W,S0,S1;W,S0,S1;... where a STATE token is h, v, d, a, l, r
(d=2) or a basis index for general dimension.

Size cap: --d must lie in 1..MAX_SPIN_DIM (16) and the K of random:K:SEED in
1..MAX_KRAUS (256); a request beyond either is an input error, reported
before any operator is built (transpose --d 100 would otherwise build 10^4
Kraus pairs).

Exit codes: 0 success, 1 constraint violation, 2 input error, 3 numerical
failure. A closed stdout pipe (``whichway ... | head``) ends the run quietly
with exit 0. A reproduce run that certifies no bound (neither the four-term
bound nor any single-preparation bound, as with a header-only records CSV)
is an input error (certify_run raises DimensionError), and so is an empty
--out, --filters or --from-csv, refused at parse time. vg,
distinguishability and verify print lines of one verify_inequality report,
so for each a slack below -1e-8 is a numerical failure, as is
D < 1 - V_G: DualityReport refuses both, and the command exits 3 whatever
--tol. Otherwise vg and distinguishability exit 0, and verify exits 0 if
the slack is at least -tol (--tol, default 1e-8) and 1 if it lies in
[-1e-8, -tol).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bounds as bnd
from . import channels as chn
from . import duality as dua
from . import interferometer as itf
from ._files import stdout_to_devnull, write_text
from .errors import (
    ContractionError,
    ConventionError,
    DimensionError,
    InputFormatError,
    NumericalError,
    SupportError,
    WhichWayError,
)
from .linalg import int_at_least, ket, real_in, unit_ket

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

MAX_SPIN_DIM = 16
MAX_KRAUS = 256

# read-only copies: _parse_state hands out these shared kets
_STATE_TOKENS = {token: unit_ket(psi, f"state token {token!r}") for token, psi in {
    "h": np.array([1.0, 0.0], dtype=complex),
    "v": np.array([0.0, 1.0], dtype=complex),
    "d": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2),
    "a": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2),
    "l": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2),
    "r": np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2),
}.items()}


def _parse_state(token: str, d: int) -> np.ndarray:
    token = token.strip()
    if token in _STATE_TOKENS:
        if d != 2:
            raise DimensionError(f"state token {token!r} is only defined for d=2")
        return _STATE_TOKENS[token]
    try:
        index = int(token)
    except ValueError:
        raise InputFormatError(f"unknown state token {token!r}") from None
    return ket(index, d)


def parse_channel(spec: str, d: int) -> chn.PathChannel:
    if not 1 <= d <= MAX_SPIN_DIM:
        raise DimensionError(f"--d must be in 1..{MAX_SPIN_DIM}, got {d}")
    kind, _, rest = spec.partition(":")
    if kind == "identity":
        return chn.identity_channel(d)
    if kind == "transpose":
        return chn.transpose_channel(d)
    if kind == "pauli":
        if d != 2:
            raise DimensionError("the pauli mixture channel is defined for d=2")
        return chn.pauli_mixture_channel()
    if kind == "replace":
        if rest:
            psi = _parse_state(rest, d)
            sigma0 = np.outer(psi, psi.conj())
        else:
            sigma0 = np.eye(d, dtype=complex) / d
        return chn.replace_channel(sigma0)
    if kind == "random":
        try:
            k_str, seed_str = rest.split(":")
            k, seed = int(k_str), int(seed_str)
        except ValueError:
            raise InputFormatError("random channel spec must be random:K:SEED") from None
        if not 1 <= k <= MAX_KRAUS:
            raise DimensionError(f"random:K:SEED needs K in 1..{MAX_KRAUS}, got {k}")
        return chn.random_path_channel(d, k, seed)
    if kind == "file":
        return chn.load_channel(rest)
    raise InputFormatError(f"unknown channel spec {spec!r}")


def parse_preparation(spec: str, d: int) -> chn.Preparation:
    kind, _, rest = spec.partition(":")
    if kind == "pure":
        tokens = rest.split(",")
        if len(tokens) != 2:
            raise InputFormatError("pure preparation spec must be pure:S0,S1")
        return chn.Preparation.pure(
            _parse_state(tokens[0], d), _parse_state(tokens[1], d), label=spec
        )
    if kind == "mixed":
        return chn.Preparation.completely_mixed(d, label="mixed")
    if kind == "ensemble":
        weights, pairs = [], []
        for part in rest.split(";"):
            fields = part.split(",")
            if len(fields) != 3:
                raise InputFormatError("ensemble terms must be W,S0,S1")
            try:
                weights.append(float(fields[0]))
            except ValueError:
                raise InputFormatError(f"ensemble term {part!r}: weight field {fields[0]!r} "
                                       "is not a number") from None
            pairs.append((_parse_state(fields[1], d), _parse_state(fields[2], d)))
        return chn.Preparation.ensemble(weights, pairs, label=spec)
    raise InputFormatError(f"unknown preparation spec {spec!r}")


def _at_least(kind, check, low, flag: str):
    """argparse type of ``flag``: ``kind(text)`` (float or int) checked by
    ``check(value, flag, low)`` (:func:`real_in` or :func:`int_at_least`),
    whose error argparse reports as ``argument FLAG: ...`` with exit 2."""
    def parse(text: str):
        try:
            return check(kind(text), flag, low)
        except WhichWayError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    parse.__name__ = kind.__name__  # argparse reports "invalid float value: 'abc'"
    return parse


def _non_empty(flag: str):
    """argparse type of ``flag``: any string but the empty one, which would
    otherwise read as the flag not given."""
    def parse(text: str) -> str:
        if not text:
            raise argparse.ArgumentTypeError(f"{flag} must not be empty")
        return text
    return parse


def _emit(text: str, out_path: str | None) -> None:
    """Write ``text`` to ``out_path`` (if given), then print it, so a failed
    write prints no result."""
    if out_path is not None:
        write_text(out_path, text + "\n")
    print(text)


def _fixed(x: float, digits: int = 4) -> str:
    """x in fixed point; a value that rounds to zero prints without a sign,
    so round-off below the printed precision never shows as "-0.0000"."""
    return f"{round(x, digits) + 0.0:.{digits}f}"


def _duality_lines(command: str, report: dua.DualityReport) -> list[str]:
    """The lines ``vg``, ``distinguishability`` or ``verify`` prints."""
    if command == "vg":
        return [f"V_G = {report.visibility:.4f}"]
    if command == "distinguishability":
        return [f"D = {report.distinguishability:.4f}"]
    bound = float(np.sqrt(max(1.0 - report.visibility**2, 0.0)))
    return [
        f"D     = {report.distinguishability:.4f}",
        f"V_G   = {report.visibility:.4f}",
        f"D_max = {bound:.4f}  (sqrt(1 - V_G^2))",
        f"slack = {_fixed(report.slack)}  (1 - D^2 - V_G^2)",
    ]


def cmd_duality(args) -> int:
    """``vg``, ``distinguishability`` and ``verify``: the lines of one
    :func:`~whichway.duality.verify_inequality` report."""
    ch = parse_channel(args.channel, args.d)
    prep = parse_preparation(args.prep, args.d)
    report = dua.verify_inequality(ch, prep)
    _emit("\n".join(_duality_lines(args.command, report)), args.out)
    return EXIT_OK if report.slack >= -args.tol else EXIT_VIOLATION


def cmd_table(args) -> int:
    ch = chn.pauli_mixture_channel()
    preps = bnd.rectilinear_preparations()
    filters = bnd.rectilinear_filters()
    labels = sorted(preps)
    records = [
        bnd.fractional_visibility(ch, preps[mu], filters[nu], mu=mu)
        for mu in labels
        for nu in labels
    ]
    recs = {r.key: r for r in records}
    header = "      " + "  ".join(f"{nu:>7}" for nu in labels)
    lines = []
    for title, value in (("fractional visibilities V (rows mu, columns nu)",
                          lambda r: abs(r.visibility)),
                         ("filtering probabilities p", lambda r: r.p)):
        lines += [title, header]
        lines += [f"{mu:>4}  " + "  ".join(f"{value(recs[(mu, nu)]):7.4f}" for nu in labels)
                  for mu in labels]
    if args.out is not None:
        bnd.write_records_csv(records, args.out)
    print("\n".join(lines))
    return EXIT_OK


def cmd_reproduce(args) -> int:
    if args.from_csv is not None:
        records = bnd.read_records_csv(args.from_csv)
        source = f"records from {args.from_csv}"
    else:
        if args.seed is None:
            raise InputFormatError("--seed is required when simulating (no --from-csv)")
        filters = None  # the rectilinear set, by the library's default route
        if args.filters is not None:
            known = bnd.rectilinear_filters()
            wanted = [f.strip() for f in args.filters.split(",")]
            unknown = [f for f in wanted if f not in known]
            if unknown:
                raise InputFormatError(f"unknown filter labels {unknown}")
            filters = {f: known[f] for f in wanted}
        records = itf.run_experiment(
            chn.pauli_mixture_channel(),
            filters=filters,
            shots_per_phase=args.shots,
            contrast=args.contrast,
            seed=args.seed,
        )
        source = (
            f"simulated records (seed={args.seed}, shots/phase={args.shots}, "
            f"contrast={args.contrast})"
        )
    run = bnd.certify_run(records)

    lines = [f"source: {source}", f"records: {len(records)}"]
    if run.swap is not None:
        cert = run.swap
        lines.append("four-term mixed-preparation bound:")
        lines.append(f"  V_G >= {cert.vg_lower:.4f} +/- {cert.sigma_vg:.4f}")
        lines.append(f"  D   <= {cert.d_upper:.4f} +/- {cert.sigma_d:.4f}")
        lines.append(f"  contraction slack = {cert.contraction_slack:.3e}")
    else:
        lines.append(f"four-term mixed-preparation bound unavailable: {run.swap_unavailable}")

    lines.append("single-preparation bounds (complementary orthonormal filters):")
    for (mu, nu, partner), cert in run.singles.items():
        lines.append(
            f"  mu={mu}, nu in {{{nu},{partner}}}: V_G >= {cert.vg_lower:.4f} "
            f"+/- {cert.sigma_vg:.4f}  ->  D <= {cert.d_upper:.4f} "
            f"+/- {cert.sigma_d:.4f}"
        )
    if run.best is not None:
        cert = run.singles[run.best]
        lines.append(
            f"  best single preparation: mu={run.best[0]} "
            f"(V_G >= {cert.vg_lower:.4f}, D <= {cert.d_upper:.4f})"
        )
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whichway",
        description="Which-way information versus interference visibility "
        "for a particle with an internal degree of freedom.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--channel", required=True,
                       help="identity | transpose | pauli | replace[:STATE] | "
                            f"random:K:SEED (K in 1..{MAX_KRAUS}) | file:PATH")
        p.add_argument("--d", type=int, default=2,
                       help=f"spin dimension, 1..{MAX_SPIN_DIM} (default 2)")
        p.add_argument("--prep", required=True,
                       help="pure:S0,S1 | mixed | ensemble:W,S0,S1;...")
        p.add_argument("--out", type=_non_empty("--out"),
                       help="write the primary output to this path")

    for name, help_text in (("vg", "generalized visibility"),
                            ("distinguishability", "which-way distinguishability"),
                            ("verify", "verify the trade-off")):
        p = sub.add_parser(name, help=help_text)
        add_common(p)
        # verify's --tol defaults to the report's slack floor, which vg and
        # distinguishability keep: they exit 0 or 3
        p.set_defaults(func=cmd_duality, tol=-dua.INEQUALITY_SLACK_FLOOR)
        if name == "verify":
            p.add_argument("--tol", type=_at_least(float, real_in, 0.0, "--tol"),
                           help="tolerance for the trade-off check, finite and >= 0")

    p_table = sub.add_parser("table", help="theory grid for the noise mixture")
    p_table.add_argument("--out", type=_non_empty("--out"),
                         help="write the grid as a records CSV")
    p_table.set_defaults(func=cmd_table)

    p_rep = sub.add_parser("reproduce", help="simulate / ingest records and bound")
    p_rep.add_argument("--seed", type=int, help="master seed (required when simulating)")
    p_rep.add_argument("--shots", type=_at_least(int, int_at_least, 1, "--shots"), default=10_000,
                       help="shots per phase, >= 1")
    p_rep.add_argument("--contrast", type=float, default=0.96,
                       help="fringe contrast factor in (0, 1]")
    p_rep.add_argument("--filters", type=_non_empty("--filters"),
                       help="comma-separated filter labels to "
                            "simulate (default: all of hh,hv,vh,vv)")
    p_rep.add_argument("--from-csv", dest="from_csv", type=_non_empty("--from-csv"),
                       help="skip simulation; read a records CSV")
    p_rep.add_argument("--out", type=_non_empty("--out"),
                       help="write the report to this path")
    p_rep.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout: end quietly, as CPython's notes on
        # SIGPIPE advise.
        stdout_to_devnull()
        return EXIT_OK
    except (SupportError, ContractionError) as exc:
        print(f"constraint violated: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (NumericalError, ConventionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (WhichWayError, OSError) as exc:
        # the package's input errors (DimensionError, PositivityError, ...)
        # and file access; a bare ValueError is a fault, not an input error
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Exit codes: 0 success, 5 verdict or verification mismatch (a bug or a
counterexample); a library error exits with its class's ``exit_code`` (see
``errors``), a ``ValueError`` from a type accident in the input with 2, and
running out of memory with 3, the resource-limit code. Near an address-space
limit CPython 3.11 can fail an allocation with a ``SystemError`` that names no
exception in place of a ``MemoryError``; it exits 3 too while ``RLIMIT_AS``
is finite, and is raised as the interpreter fault it otherwise is.

``main`` pauses Python's cyclic garbage collector for one request and then
restores the caller's setting. The engine's data are acyclic trees of dicts
and lists of ints, so reference counting frees them, and a collection pass
would only walk them again and again as they grow. The only cyclic garbage
a request leaves is the closures of ``json``'s indent encoder, a fixed few
per document.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import os
import resource
import stat
import sys
import tempfile

from . import masks
from .cohomology import DEFAULT_MAX_M, CohomologyEngine, prime_field
from .complexes import glue_simplex, join, k2r_family, k2r_vertex_count, wedge
from .double import h_ranks, hh_ranks
from .errors import MachhError, ParseError, ResourceLimit
from .serialization import (
    complex_to_dict,
    load_complex,
    render_json,
    render_table_csv,
    render_table_pretty,
    result_document,
)
from .theorem import verify_theorem1


def _decimal(text: str) -> int:
    """A non-negative integer written in ASCII decimal digits only: no sign,
    underscore, space or other script's digits, all of which ``int`` takes."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


_decimal.__name__ = "int"  # argparse names the type in its refusal


def _parse_field(spec: str) -> int:
    """The characteristic that ``--field`` names: 0 for q, p for gf:<p>."""
    if spec == "q":
        return 0
    if spec.startswith("gf:"):
        try:
            p = _decimal(spec[3:])
        except ValueError:
            raise ParseError(f"bad field spec {spec!r}")
        try:
            return prime_field(p)
        except ValueError as exc:
            raise ParseError(str(exc))
    raise ParseError(f"bad field spec {spec!r} (use q or gf:<odd prime>)")


def _parse_vertex_list(spec: str) -> list[int]:
    try:
        verts = [_decimal(x.strip()) for x in spec.split(",")]  # an empty entry is no int
    except ValueError:
        raise ParseError(f"bad vertex list {spec!r}")
    if len(set(verts)) != len(verts):
        raise ParseError(f"repeated vertex in {spec!r}")
    return verts


def _field_and_cap(args) -> tuple[int, int]:
    """The validated ``--field`` and ``--max-m`` of a computing subcommand."""
    if args.max_m < 1 or args.max_m > masks.MAX_GROUND_SET:
        raise ParseError(f"--max-m must be in 1..{masks.MAX_GROUND_SET}")
    return _parse_field(args.field_spec), args.max_m


def _emit(text: str, out: str | None) -> None:
    """Write the finished document.

    A file target is written to a fresh temporary file in its directory and
    renamed over the target, so concurrent runs never share a temporary name
    and no partial or temporary file is left behind. A symlink is resolved
    first, so the file it points to is replaced and the link stays. The new
    file takes the permission bits of the one it replaces, or for a new file
    0o666 minus the umask, as ``open`` would give it. A target that exists
    and is not a regular file, such as a device or a FIFO, is written in
    place: a rename would replace it.
    """
    if out is None:
        sys.stdout.write(text)
        return
    target = os.path.realpath(out)
    tmp = None
    try:
        existing = os.stat(target) if os.path.exists(target) else None
        if existing and not stat.S_ISREG(existing.st_mode):
            with open(target, "w") as fh:
                fh.write(text)
            return
        os.umask(umask := os.umask(0))  # the umask is read by setting it
        folder, name = os.path.split(target)
        fd, tmp = tempfile.mkstemp(dir=folder, prefix=f".{name}.", suffix=".tmp")
        os.fchmod(fd, stat.S_IMODE(existing.st_mode) if existing else 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
        tmp = None
    except OSError as exc:
        raise ParseError(f"cannot write --out {out}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and then reused: ``parse_args``
    keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="machh",
        description="Ordinary and double cohomology ranks of moment-angle complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def flags(p, compute=False, fmt=False, verify=False):
        """Add the flags a subcommand reads; every subcommand takes --out."""
        if compute:
            p.add_argument(
                "--field",
                dest="field_spec",
                metavar="FIELD",
                default="q",
                help="q (exact rationals) or gf:<odd prime>",
            )
            p.add_argument("--max-m", type=_decimal, default=DEFAULT_MAX_M, help="resource cap on m")
        p.add_argument("--out", default=None, help="write output to this path")
        if fmt:
            p.add_argument(
                "--format", choices=["json", "csv", "table"], default="json", help="output format"
            )
        if verify:
            p.add_argument(
                "--verify-exact",
                action="store_true",
                help="recompute final ranks over the rationals when using gf:<p>",
            )

    p_hh = sub.add_parser("hh", help="bigraded double cohomology ranks of a complex file")
    p_hh.set_defaults(run=functools.partial(_cmd_ranks, want_hh=True))
    p_hh.add_argument("input")
    flags(p_hh, compute=True, fmt=True, verify=True)

    p_h = sub.add_parser("h", help="bigraded ordinary cohomology ranks of a complex file")
    p_h.set_defaults(run=functools.partial(_cmd_ranks, want_hh=False))
    p_h.add_argument("input")
    flags(p_h, compute=True, fmt=True)

    p_con = sub.add_parser("construct", help="build complexes and write them as JSON")
    p_con.set_defaults(run=_cmd_construct)
    con_sub = p_con.add_subparsers(dest="kind", required=True)
    p_k2r = con_sub.add_parser("k2r", help="member of the even-rank family")
    p_k2r.add_argument("--r", type=_decimal, required=True)
    flags(p_k2r)
    p_join = con_sub.add_parser("join", help="simplicial join of two complex files")
    p_join.add_argument("a")
    p_join.add_argument("b")
    flags(p_join)
    p_wedge = con_sub.add_parser("wedge", help="one-point union of two complex files")
    p_wedge.add_argument("a")
    p_wedge.add_argument("b")
    p_wedge.add_argument("--at-a", type=_decimal, required=True, help="vertex of the first complex")
    p_wedge.add_argument("--at-b", type=_decimal, required=True, help="vertex of the second complex")
    flags(p_wedge)
    p_glue = con_sub.add_parser("glue", help="add one simplex whose boundary is present")
    p_glue.add_argument("a")
    p_glue.add_argument("--face", required=True, help="comma-separated vertices")
    flags(p_glue)

    p_chk = sub.add_parser("check-thm1", help="verify the simplex-gluing rank theorem")
    p_chk.set_defaults(run=_cmd_check_thm1)
    p_chk.add_argument("input")
    p_chk.add_argument("sigma", help="comma-separated vertices of the glued simplex")
    flags(p_chk, compute=True)

    p_lad = sub.add_parser("ladder", help="even-rank family: computed vs expected totals")
    p_lad.set_defaults(run=_cmd_ladder)
    p_lad.add_argument("--r-max", type=_decimal, required=True)
    flags(p_lad, compute=True, fmt=True)

    return parser


def _cmd_ranks(args, want_hh: bool) -> int:
    char, max_m = _field_and_cap(args)
    K = load_complex(args.input, max_m)
    engine = CohomologyEngine(K, char, max_m)
    h = h_ranks(engine)
    hh = hh_ranks(engine) if want_hh else None
    del engine  # free its subsets before --verify-exact builds a second engine
    doc = result_document(K.m, char, h=h, hh=hh)
    if want_hh and args.verify_exact and char:
        exact = hh_ranks(CohomologyEngine(K, 0, max_m))
        if exact.entries != hh.entries:
            sys.stderr.write("VerificationMismatch: gf ranks differ from exact rational ranks\n")
            return 5
        doc["verified_exact"] = True
    if args.format == "json":
        text = render_json(doc)
    elif args.format == "csv":
        text = render_table_csv(hh if want_hh else h)
    else:
        text = render_table_pretty(hh if want_hh else h, "hh" if want_hh else "h")
    _emit(text, args.out)
    return 0


def _cmd_construct(args) -> int:
    meta = None
    if args.kind == "k2r":
        if args.r < 1:
            raise ParseError("--r must be >= 1")
        built = k2r_family(args.r)
        K = built.complex
        meta = {"non_edge": list(built.non_edge)}
    elif args.kind == "join":
        K = join(load_complex(args.a), load_complex(args.b))
    elif args.kind == "wedge":
        K = wedge(load_complex(args.a), args.at_a, load_complex(args.b), args.at_b)
    else:
        A = load_complex(args.a)
        K = glue_simplex(A, masks.mask_of(_parse_vertex_list(args.face), A.m))
    _emit(render_json(complex_to_dict(K, meta)), args.out)
    return 0


def _cmd_check_thm1(args) -> int:
    char, max_m = _field_and_cap(args)
    K = load_complex(args.input, max_m)
    sigma = masks.mask_of(_parse_vertex_list(args.sigma), K.m)
    result = verify_theorem1(K, sigma, char, max_m)
    rep = result.report
    doc = {
        "sigma": list(masks.vertices(sigma)),
        "n": rep.n,
        "conditions": list(rep.conditions),
        "applicable": rep.applicable,
        "witnessing_J": list(masks.vertices(rep.witnessing_J))
        if rep.witnessing_J is not None
        else None,
        "predicted_delta": rep.predicted_delta,
        "relabeling": list(rep.relabeling),
        "rank_before": result.rank_before,
        "rank_after": result.rank_after,
        "rows_before": {str(p): r for p, r in result.rows_before.items()},
        "rows_after": {str(p): r for p, r in result.rows_after.items()},
        "verdict": "pass" if result.verdict else "fail",
    }
    _emit(render_json(doc), args.out)
    if not result.verdict:
        sys.stderr.write("VerdictMismatch: observed rank changes disagree with the theorem\n")
        return 5
    return 0


def _cmd_ladder(args) -> int:
    char, max_m = _field_and_cap(args)
    if args.r_max < 1:
        raise ParseError("--r-max must be >= 1")
    m = k2r_vertex_count(args.r_max)  # non-decreasing in r, so the last member is the largest
    if m > max_m:
        raise ResourceLimit(f"family member r={args.r_max} needs m={m} > --max-m {max_m}")
    rows = []
    all_pass = True
    for r in range(1, args.r_max + 1):
        K = k2r_family(r).complex
        rank = hh_ranks(CohomologyEngine(K, char, max_m)).total()
        ok = rank == 2 * r
        all_pass = all_pass and ok
        rows.append({"r": r, "m": K.m, "rank": rank, "expected": 2 * r, "pass": ok})
    if args.format == "json":
        text = render_json({"rows": rows, "all_pass": all_pass})
    elif args.format == "csv":
        lines = ["r,m,rank,expected,pass"]
        lines += [f"{x['r']},{x['m']},{x['rank']},{x['expected']},{str(x['pass']).lower()}" for x in rows]
        text = "\n".join(lines) + "\n"
    else:
        lines = ["r  m  rank expected pass"]
        lines += [f"{x['r']:<2} {x['m']:<2} {x['rank']:<4} {x['expected']:<8} {x['pass']}" for x in rows]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if all_pass else 5


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.run(args)


def main(argv=None) -> int:
    collecting = gc.isenabled()
    gc.disable()  # for this request only (module docstring)
    try:
        return _run(argv)
    except MachhError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return exc.exit_code
    except ValueError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2
    except (MemoryError, SystemError) as exc:
        if isinstance(exc, SystemError) and resource.getrlimit(resource.RLIMIT_AS)[0] == resource.RLIM_INFINITY:
            raise  # an interpreter fault: only under a finite limit is it out of memory (module docstring)
        sys.stderr.write("ResourceLimit: out of memory\n")
        return ResourceLimit.exit_code
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())

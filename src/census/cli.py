"""Command-line front end.

Subcommands: kac, constant-term, betti, count, check, identities.  One
invocation per process; results of the kac subcommand are cached on disk
as the result JSON plus an engine-version stamp, so warm re-runs emit
byte-identical output without recomputation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from functools import lru_cache

from . import pipeline
from .errors import CensusError, IdentityViolation, UsageError
from .pipeline import ENGINE_VERSION, KacResult
from .ring import rational_to_json
from .zeta import CurveData


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# built once per process: parse_args leaves it unchanged, and building it
# costs more than a warm cached request
@lru_cache(maxsize=None)
def build_parser():
    top = _Parser(prog="census",
                  description="Exact counts of geometrically indecomposable "
                              "bundles on curves over finite fields.")
    top.add_argument("--format", choices=("json", "latex", "text"),
                     default="text", help="output format (default: text)")
    top.add_argument("--cache-dir", default=None,
                     help="directory for result caching; the CENSUS_CACHE "
                          "environment variable overrides this flag")
    # accepted for old command lines and ignored: the work is sequential
    top.add_argument("--jobs", type=int, help=argparse.SUPPRESS)
    top.add_argument("--verbose", action="store_true")
    sub = top.add_subparsers(dest="subcommand", metavar="COMMAND")

    def gr(p, degree=True):
        p.add_argument("--genus", "-g", type=int, required=True)
        p.add_argument("--rank", "-r", type=int, required=True)
        if degree:
            p.add_argument("--degree", "-d", type=int, default=0)

    gr(sub.add_parser("kac", help="the full counting polynomial"))
    gr(sub.add_parser("constant-term",
                      help="evaluation at vanishing Weil numbers"))
    gr(sub.add_parser("betti", help="Poincare polynomial of the coprime "
                                    "moduli space"))
    pc = sub.add_parser("count", help="numeric counts over a concrete curve")
    pc.add_argument("--rank", "-r", type=int, required=True)
    pc.add_argument("--degree", "-d", type=int, default=0)
    pc.add_argument("--curve", required=True,
                    help="JSON file with q, genus, point_counts")
    gr(sub.add_parser("check", help="pole structure and degree-class report"),
       degree=False)
    pi = sub.add_parser("identities", help="internal consistency identities")
    pi.add_argument("--genus", "-g", type=int, required=True)
    pi.add_argument("--orders", "-L", type=int, default=6,
                    help="series truncation order (default: 6)")
    return top


def _cache_dir(args):
    return os.environ.get("CENSUS_CACHE") or args.cache_dir


_RESULT_KEYS = frozenset(("genus", "rank", "degree_class", "polynomial",
                          "flags", "provenance"))


def _cache_name(genus, rank, degree_class):
    return "kac_g%d_r%d_d%d.json" % (genus, rank, degree_class)


# what KacResult.from_json raises on an entry of the wrong shape
_PARSE_ERRORS = (LookupError, TypeError, ValueError, AttributeError,
                 ArithmeticError, CensusError)


def _read_json(path):
    """The JSON document in the file at path; one nested too deeply for
    the parser is a ValueError, as any other malformed one is."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("%s: JSON nested too deeply" % path) from None


def _cache_load(path):
    """The entry stored at path as (result JSON, KacResult), or None for a
    miss: an unreadable file, another engine version, an entry that is not
    a result object or does not parse, or one whose genus, rank and degree
    class are not those of its file name."""
    try:
        blob = _read_json(path)
    except (OSError, ValueError):
        return None
    if not isinstance(blob, dict) or blob.get("engine") != ENGINE_VERSION:
        return None
    result = blob.get("result")
    if not isinstance(result, dict) or not _RESULT_KEYS <= result.keys():
        return None
    key = (result["genus"], result["rank"], result["degree_class"])
    if (any(type(k) is not int for k in key)
            or _cache_name(*key) != os.path.basename(path)):
        return None
    try:
        return result, KacResult.from_json(result)
    except _PARSE_ERRORS:
        return None


def _cache_store(path, result):
    """Write the entry at path; a cache that cannot be written, even where
    its directory cannot be made, is skipped."""
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    except OSError:
        return
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump({"engine": ENGINE_VERSION, "result": result}, fh,
                      sort_keys=True)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _kac_result(args):
    """(result JSON, KacResult or None) for a kac invocation: a cache hit
    comes parsed, a fresh result is parsed only if the format needs it."""
    d = args.degree % args.rank if args.rank else args.degree
    cdir = _cache_dir(args)
    path = None
    if cdir:
        path = os.path.join(cdir, _cache_name(args.genus, args.rank, d))
        cached = _cache_load(path)
        if cached is not None:
            return cached
    blob = pipeline.kac_polynomial(args.genus, args.rank, args.degree).to_json()
    if path:
        _cache_store(path, blob)
    return blob, None


def _emit_kac(args, out):
    blob, res = _kac_result(args)
    if args.format == "json":
        out.write(json.dumps(blob, sort_keys=True) + "\n")
        return
    if res is None:
        res = KacResult.from_json(blob)
    if args.format == "latex":
        out.write(pipeline.latex_value(res) + "\n")
        return
    out.write("A(genus=%d, rank=%d, degree class=%d)\n"
              % (res.genus, res.rank, res.degree_class))
    out.write("polynomial: %s\n" % ("yes" if res.is_polynomial else "no"))
    out.write("degree-class independent: %s\n"
              % ("yes" if res.is_d_independent else "no"))
    out.write("value: %r\n" % (res.polynomial,))


def _emit_constant_term(args, out):
    v = pipeline.constant_term(args.genus, args.rank, args.degree)
    if args.format == "json":
        out.write(json.dumps({
            "genus": args.genus, "rank": args.rank,
            "degree_class": args.degree % args.rank,
            "constant_term": rational_to_json(v),
            "provenance": {"route": "constant-term", "engine": ENGINE_VERSION},
        }, sort_keys=True) + "\n")
    elif args.format == "latex" and v.denominator != 1:
        out.write("\\tfrac{%d}{%d}\n" % (v.numerator, v.denominator))
    else:
        out.write("%s\n" % (v,))


def _emit_betti(args, out):
    p = pipeline.betti_polynomial(args.genus, args.rank, args.degree)
    if args.format == "json":
        blob = {"genus": args.genus, "rank": args.rank,
                "degree_class": args.degree % args.rank,
                "polynomial": dict(kind="polynomial",
                                   **pipeline.poly_to_json(p)),
                "provenance": {"route": "betti", "engine": ENGINE_VERSION}}
        out.write(json.dumps(blob, sort_keys=True) + "\n")
    elif args.format == "latex":
        out.write(pipeline.latex_poly(p) + "\n")
    else:
        out.write("%r\n" % (p,))


def _emit_count(args, out):
    curve = CurveData.from_dict(_read_json(args.curve))
    n, higgs = pipeline.count_points(curve, args.rank, args.degree)
    if args.format == "json":
        blob = {"q": curve.q, "genus": curve.genus, "rank": args.rank,
                "degree_class": args.degree % args.rank,
                "indecomposables": n}
        if higgs is not None:
            blob["higgs_points"] = higgs
        out.write(json.dumps(blob, sort_keys=True) + "\n")
    else:
        out.write("indecomposables %d\n" % n)
        if higgs is not None:
            out.write("higgs_points %d\n" % higgs)


def _emit_check(args, out):
    rep = pipeline.regularity_report(args.genus, args.rank)
    if args.format == "json":
        blob = {"genus": rep.genus, "rank": rep.rank,
                "pole_orders": {str(m): o for m, o in
                                sorted(rep.pole_orders.items())},
                "all_simple": rep.all_simple,
                "clears_linear": rep.clears_linear,
                "clears_power": rep.clears_power,
                "is_d_independent": rep.is_d_independent}
        out.write(json.dumps(blob, sort_keys=True) + "\n")
    else:
        for line in rep.lines():
            out.write(line + "\n")


def _emit_identities(args, out):
    report = pipeline.identity_report(args.genus, args.orders)
    if args.format == "json":
        out.write(json.dumps({"genus": args.genus, "orders": args.orders,
                              "identities": {n: ok for n, ok in report}},
                             sort_keys=True) + "\n")
    else:
        for name, ok in report:
            out.write("%s %s\n" % ("pass" if ok else "FAIL", name))
    failed = [name for name, ok in report if not ok]
    if failed:
        raise IdentityViolation("identities failed: %s" % ", ".join(failed))


_DISPATCH = {
    "kac": _emit_kac,
    "constant-term": _emit_constant_term,
    "betti": _emit_betti,
    "count": _emit_count,
    "check": _emit_check,
    "identities": _emit_identities,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.subcommand:
            raise UsageError("a subcommand is required")
        _DISPATCH[args.subcommand](args, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`census ... | head`): as in the SIGPIPE
        # note of the Python docs, the interpreter's last flush goes to
        # the null device, and the exit is 1 with nothing on stderr
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except UsageError as exc:
        sys.stderr.write("usage error: %s\n" % (exc,))
        return 2
    except (CensusError, OSError, ValueError) as exc:
        sys.stderr.write("%s: %s\n" % (type(exc).__name__, exc))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

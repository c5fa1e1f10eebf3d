"""The benchmark's workloads: the library calls each one makes and the
check applied to every result.

Each workload puts a different layer of census on the critical path:

- kac-g2r3: the north-star case kac(2,3); the residue engine (kernel
  build_L and chain residues) dominates.
- oracle-g3r2: many Weil variables, a kernel under 1 %; λ-term products,
  the rational Log and the truncated-z series mode dominate.  It is the
  control for a residue change.
- constant-term: the pure-z route, no Weil variables, residues or zeta;
  series_log on univariate fractions dominates.
- cli-warm: warm CLI requests served from the disk cache; the cache load,
  KacResult.from_json and formatting, with no residue or series work.

A workload is built by ``build(name, census, rng, smoke, tmpdir)``, which
prepares the inputs and returns (setup_ops, solve_ops); setup_ops are the
set-up steps whose results are checked.  An op is (key, thunk): the thunk
returns a canonical value that must equal ``expected[key]``, or, when key
is None, it is a live cross-check that must return True.  The seed only
orders the solve ops; the computed set is the same for every seed, so
counts repeat exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os

NAMES = ("kac-g2r3", "oracle-g3r2", "constant-term", "cli-warm")

# Case sizes: the measured ones, and toy ones for the smoke mode.
SIZES = {
    "kac-g2r3": {"full": dict(g=2, r=3, q=3, counts=[3, 13]),
                 "smoke": dict(g=1, r=2, q=2, counts=[3])},
    "oracle-g3r2": {"full": dict(g=3, r=2), "smoke": dict(g=1, r=2)},
    "constant-term": {"full": dict(genera=(2, 5), ranks=range(1, 11)),
                      "smoke": dict(genera=(2,), ranks=range(1, 4))},
    "cli-warm": {"full": dict(cases=((1, 2), (2, 2), (3, 2), (1, 3)),
                              repeats=12),
                 "smoke": dict(cases=((1, 2),), repeats=2)},
}

# Hitchin's g=2 fixed-determinant polynomial without its Jac[2]-variant
# part: betti(2,2,1) = t^20 P(1/t), P = (1+t)^4 (1+t^2+4t^3+2t^4+4t^5+2t^6).
_HITCHIN_FACTORS = ([1, 1],) * 4 + ([1, 0, 1, 4, 2, 4, 2],)


def digest(obj):
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build(name, census, rng, smoke, tmpdir):
    size = SIZES[name]["smoke" if smoke else "full"]
    setup, ops, closing = _BUILDERS[name](census, tmpdir=tmpdir, **size)
    rng.shuffle(ops)
    return setup, ops + closing


def _kac_op(census, g, r, d):
    return ("kac(%d,%d,%d)" % (g, r, d),
            lambda: digest(census.kac_polynomial(g, r, d).to_json()))


def _betti_op(census, g, r, d):
    pipeline = census.pipeline
    return ("betti(%d,%d,%d)" % (g, r, d),
            lambda: digest(pipeline.poly_to_json(
                census.betti_polynomial(g, r, d))))


def _kac_g2r3(census, g, r, q, counts, tmpdir):
    curve = census.weil_from_counts(q, counts)
    tag = "%d,%s" % (q, counts)
    ops = [_kac_op(census, g, r, d) for d in range(r)]
    ops += [_betti_op(census, g, r, d) for d in range(1, r)]

    def count(rr, d):
        n, higgs = census.count_points(curve, rr, d)
        return "%d %s" % (n, higgs)

    ops += [("count(%s;%d,%d)" % (tag, rr, d),
             lambda rr=rr, d=d: count(rr, d)) for rr, d in ((r, 1), (1, 0))]
    # the rank-1 count is the class number |Pic^0| = P(1)
    ops.append((None, lambda: census.count_points(curve, 1, 0)[0]
                == sum(curve.numerator)))
    return [], ops, []


def _oracle_g3r2(census, g, r, tmpdir):
    ops = [_kac_op(census, g, r, d) for d in range(r)]
    ops.append(_betti_op(census, g, r, 1))

    memo = []

    def series():
        if not memo:
            memo.append(census.kac_series_oracle(g, r))
        return memo[0]

    def oracle():
        return digest([census.pipeline.poly_to_json(p) for p in series()])

    def oracle_tail():
        # past the stabilization bound the oracle is r-periodic and equals
        # the degree-class sums of the main route
        coeffs = series()
        start = max(0, (g - 1) * r * (r - 1) + 1)
        return len(coeffs) >= start + r and all(
            coeffs[d] == census.kac_polynomial(g, r, d).lifted
            for d in range(start, len(coeffs)))

    ops.append(("oracle(%d,%d)" % (g, r), oracle))
    ops.append((None, oracle_tail))
    ops += [_kac_op(census, 2, 2, d) for d in range(2)]
    ops.append(_betti_op(census, 2, 2, 1))
    ops.append((None, lambda: census.betti_polynomial(2, 2, 1)
                == _hitchin(census)))
    return [], ops, []


def _hitchin(census):
    coeffs = [1]
    for factor in _HITCHIN_FACTORS:
        out = [0] * (len(coeffs) + len(factor) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        coeffs = out
    Monomial = census.Monomial
    return census.SparsePoly({Monomial.of(t=20 - k): c
                              for k, c in enumerate(coeffs) if c})


def _constant_term(census, genera, ranks, tmpdir):
    def value(g, r, d):
        v = census.constant_term(g, r, d)
        return "%d/%d" % (v.numerator, v.denominator)

    ops = [("constant_term(%d,%d,%d)" % (g, r, d),
            lambda g=g, r=r, d=d: value(g, r, d))
           for g in genera for r in ranks for d in range(r)]
    return [], ops, []


def _cli(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError("census %s exited with %d" % (" ".join(argv), code))
    return digest(out.getvalue())


def _cli_warm(census, cases, repeats, tmpdir):
    """Set-up fills the disk cache with cold json runs; the requests then
    cycle every class in json, text and latex, as one closed-loop client.
    A closing check confirms that every request was a cache hit."""
    cli = importlib.import_module("census.cli")

    def request(fmt, g, r, d):
        argv = ["--jobs", "1", "--cache-dir", tmpdir, "--format", fmt,
                "kac", "-g", str(g), "-r", str(r), "-d", str(d)]
        return ("cli(%s,%d,%d,%d)" % (fmt, g, r, d),
                lambda: _cli(cli, argv))

    classes = [(g, r, d) for g, r in cases for d in range(r)]
    ops = [request(fmt, *c) for fmt in ("json", "text", "latex")
           for c in classes] * repeats
    stamps = []

    def stamp():
        # (name, inode, mtime) of every cache file: a miss rewrites one
        stamps.append(sorted((e.name, e.inode(), e.stat().st_mtime_ns)
                             for e in os.scandir(tmpdir)))
        return True

    setup = [request("json", *c) for c in classes] + [(None, stamp)]
    return setup, ops, [(None, lambda: stamp() and stamps[0] == stamps[1])]


_BUILDERS = {
    "kac-g2r3": _kac_g2r3,
    "oracle-g3r2": _oracle_g3r2,
    "constant-term": _constant_term,
    "cli-warm": _cli_warm,
}

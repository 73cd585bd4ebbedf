"""Acceptance gate: the full contract, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines;
a FAIL line is always accompanied by the failing assertion.
"""

import itertools
import json
import random
from contextlib import contextmanager

from relchern import (BundleSpec, FermatFamily, FormalBase, HypersurfaceSpec,
                      ProjClass, ProjectiveSpaceBase, divided_difference,
                      euler_characteristic, expand_ratio, normalize_twist,
                      parse_class_expr, pushforward_closed_form,
                      pushforward_power, pushforward_series, q_class,
                      relative_chern_class, render_expr,
                      smooth_hypersurface_euler)
from relchern.cli import main
from relchern.ring import ChowRing, Symbol
from tests.randgen import (in_powers_of, random_base, random_bundle, random_expr,
                           random_form, random_proj_class, shifted)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number}: {label}")
        raise
    print(f"PASS  criterion {number}: {label}")


def weierstrass_over(base):
    L = base.ring.sym("L")
    bundle = BundleSpec([base.ring.zero, 2 * L, 3 * L])
    return HypersurfaceSpec(3, 6 * L, bundle)


def test_criterion_1_weierstrass_q():
    with criterion(1, "Weierstrass Q equals 12L/(1+6L) for base_dim 0..6"):
        for dim in range(7):
            base = FormalBase(dim)
            L = base.ring.sym("L") if dim else base.ring.zero
            expected = (expand_ratio(12 * L, base.ring.one + 6 * L)
                        if dim else base.ring.zero)
            assert q_class(weierstrass_over(base)) == expected, dim


def test_criterion_2_fano_svw():
    with criterion(2, "Fano codim-3 SVW component is 12c1c2 + 360c1^3"):
        base = FormalBase(3, fano=True)
        c1, c2 = base.chern_symbol(1), base.chern_symbol(2)
        rc = relative_chern_class(weierstrass_over(base), base)
        assert base.apply_binding(rc.component(3)) == 12 * c1 * c2 + 360 * c1 ** 3


def test_criterion_3_concrete_euler_numbers():
    with criterion(3, "chi = 23328 over P3 (L=4h) and -540 over P2 (L=3h)"):
        for dim, multiple, expected in ((3, 4, 23328), (2, 3, -540)):
            base = ProjectiveSpaceBase(dim, multiple=multiple)
            ell = multiple * base.hyperplane()
            bundle = BundleSpec([base.ring.zero, 2 * ell, 3 * ell])
            hyp = HypersurfaceSpec(3, 6 * ell, bundle)
            assert euler_characteristic(hyp, base) == expected


def test_criterion_4_dual_route_grid():
    with criterion(4, "stratified route equals pushforward route on the "
                      "n=2..4, d=2..5, dim=1..4 grid"):
        for n, d, dim in itertools.product(range(2, 5), range(2, 6),
                                           range(1, 5)):
            fam = FermatFamily(n, d, base_dim=dim)
            base = fam.formal_base()
            stratified = fam.chern_by_strata(base)
            pushed = relative_chern_class(fam.hypersurface(base), base)
            assert stratified == pushed, (
                f"routes disagree at n={n}, d={d}, base_dim={dim}")


def test_criterion_5_route_equivalence_randomized():
    with criterion(5, "closed-form pushforward equals series pushforward on "
                      "200+ random instances"):
        rng = random.Random(1123581321)
        repeated_seen = 0
        for trial in range(210):
            bundle = random_bundle(rng, random_base(rng))
            if any(mult > 1 for _, mult in bundle.roots):
                repeated_seen += 1
            cls = random_proj_class(rng, bundle)
            assert pushforward_series(cls) == pushforward_closed_form(cls), \
                (trial, bundle, cls)
        assert repeated_seen >= 50  # the D operator really is exercised


def test_criterion_6_symmetric_function_identities():
    with criterion(6, "divided differences match enumerated h_j (m,j <= 4) "
                      "and vanish below degree m-1"):
        for m in range(1, 5):
            # degree-1 nodes in a ring of bound 4 >= j: nothing truncates
            names = [f"x{i}" for i in range(1, m + 1)]
            ring = ChowRing([Symbol(name) for name in names], 4)
            nodes = [ring.sym(name) for name in names]
            for j in range(5):
                powers = [0] * (m + j - 1) + [1]
                value = divided_difference(powers, nodes)
                expected = ring.zero
                for combo in itertools.combinations_with_replacement(nodes, j):
                    term = ring.one
                    for node in combo:
                        term = term * node
                    expected = expected + term
                assert value == expected, (m, j)
            for p in range(m - 1):
                powers = [0] * p + [1]
                assert divided_difference(powers, nodes) == 0, (m, p)


def test_criterion_7_hypersurface_euler_table():
    with criterion(7, "smooth-hypersurface Euler numbers hit the spot table"):
        for n in range(1, 7):
            assert smooth_hypersurface_euler(n, 1) == n
        assert smooth_hypersurface_euler(2, 3) == 0
        assert smooth_hypersurface_euler(3, 4) == 24
        assert smooth_hypersurface_euler(3, 3) == 9


def test_criterion_8_structural_invariants():
    with criterion(8, "low powers push to 0/1; projection formula; twist "
                      "invariance"):
        rng = random.Random(271828)
        for _ in range(20):
            bundle = random_bundle(rng, random_base(rng))
            for j in range(bundle.fiber_dim):
                assert pushforward_power(bundle, j) == 0
            assert pushforward_power(bundle, bundle.fiber_dim) == 1
        for _ in range(25):
            bundle = random_bundle(rng, random_base(rng))
            cls = random_proj_class(rng, bundle)
            beta = random_form(rng, bundle.ring)
            lifted = ProjClass.from_base(bundle, beta) * cls
            assert pushforward_series(lifted) == beta * pushforward_series(cls)
            shift = random_form(rng, bundle.ring, nonzero=False)
            moved = [(form + shift, mult) for form, mult in bundle.roots]
            renorm, h = normalize_twist(moved)
            back = in_powers_of(shifted(cls, shift).coeffs, h)
            assert renorm == bundle
            assert pushforward_series(back) == pushforward_series(cls)


WEIERSTRASS_JOB = {
    "base": {"kind": "formal", "dim": 3},
    "bundle": {"roots": [{"form": {}},
                         {"form": {"L": 2}},
                         {"form": {"L": 3}}]},
    "hypersurface": {"degree": 3, "beta": {"L": 6}},
    "format": "json",
}


def _cli_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_criterion_9_cli_contract(tmp_path, capsys):
    with criterion(9, "CLI JSON reproduces criteria 1-3; 100 expressions "
                      "survive parse-render-parse"):
        job = tmp_path / "weierstrass.json"
        job.write_text(json.dumps(WEIERSTRASS_JOB), encoding="utf-8")
        doc = _cli_json(capsys, ["qclass", "--config", str(job)])
        assert doc["result"]["class"] == [
            {"codim": 1, "terms": [{"monomial": {"L": 1},
                                    "coeff": {"numerator": "12",
                                              "denominator": "1"}}]},
            {"codim": 2, "terms": [{"monomial": {"L": 2},
                                    "coeff": {"numerator": "-72",
                                              "denominator": "1"}}]},
            {"codim": 3, "terms": [{"monomial": {"L": 3},
                                    "coeff": {"numerator": "432",
                                              "denominator": "1"}}]},
        ]

        fano_job = dict(WEIERSTRASS_JOB)
        fano_job["base"] = {"kind": "formal", "dim": 3, "fano": True}
        job.write_text(json.dumps(fano_job), encoding="utf-8")
        doc = _cli_json(capsys, ["euler", "--config", str(job)])
        assert doc["result"]["class"] == [
            {"codim": 3, "terms": [
                {"monomial": {"c1": 3},
                 "coeff": {"numerator": "360", "denominator": "1"}},
                {"monomial": {"c1": 1, "c2": 1},
                 "coeff": {"numerator": "12", "denominator": "1"}}]},
        ]

        for dim, multiple, expected in ((3, 4, "23328"), (2, 3, "-540")):
            proj = dict(WEIERSTRASS_JOB)
            proj["base"] = {"kind": "projective", "dim": dim,
                            "bind": {"L": multiple}}
            job.write_text(json.dumps(proj), encoding="utf-8")
            doc = _cli_json(capsys, ["euler", "--config", str(job)])
            assert doc["result"] == {"euler_characteristic": expected}

        rng = random.Random(314159)
        for _ in range(100):
            tree = random_expr(rng)
            assert parse_class_expr(render_expr(tree)) == tree

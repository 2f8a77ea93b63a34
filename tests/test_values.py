"""The exact value type Dyadic, and the package's paths that never load
mpmath.

A Dyadic m * 2^e must order, compare and hash as the equal Fraction does,
spell and read back byte for byte in both text forms, and carry the very
mpf tuple that the readers returned as an mpf before.
"""
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp

from graphspectra.realroots import ZERO, Dyadic, real_roots, sorted_values
from graphspectra.spectra import (_nstr, dyadic_fraction, hex_dyadic,
                                  parse_dyadic_fraction, parse_hex_dyadic)

signed_pairs = st.tuples(st.integers(-2 ** 200, 2 ** 200), st.integers(-400, 400))


def _fraction(m, e):
    return Fraction(m) * Fraction(2) ** e


@given(signed_pairs, signed_pairs)
@example((0, 0), (0, 5))
@example((3, -1), (6, -2))
@example((-1, 400), (1, -400))
def test_order_equality_and_hash_agree_with_fractions(x, y):
    a, b = Dyadic(*x), Dyadic(*y)
    fa, fb = _fraction(*x), _fraction(*y)
    assert (a < b, a <= b, a == b, a != b, a >= b, a > b) == (
        fa < fb, fa <= fb, fa == fb, fa != fb, fa >= fb, fa > fb)
    assert hash(a) == hash(fa)
    assert a != b or hash(a) == hash(b)
    assert bool(a) == bool(fa)
    assert float(a) == float(fa)
    assert _fraction(*(a * 3).pair) == 3 * fa
    # against ints and against the equal mpf
    assert (a == int(fa)) == (fa.denominator == 1)
    assert (a < 1, a > -1) == (fa < 1, fa > -1)
    f = mp.make_mpf(a._mpf_)
    assert a == f and f == a and hash(f) == hash(a)
    assert (a < mp.make_mpf(b._mpf_)) == (fa < fb)


@given(signed_pairs)
@example((0, 0))
@example((-(2 ** 200), -400))
def test_text_forms_round_trip_and_read_the_old_mpf(x):
    m, e = x
    v = Dyadic(m, e)
    old = mp.make_mpf(from_man_exp(m, e))  # what the readers returned before
    assert v._mpf_ == old._mpf_
    assert mp.make_mpf(v._mpf_) == old
    for spell, read in ((hex_dyadic, parse_hex_dyadic),
                        (dyadic_fraction, parse_dyadic_fraction)):
        text = spell(v)
        back = read(text)
        assert back._mpf_ == v._mpf_ and type(back) is Dyadic
        assert spell(back) == text == spell(old)


@given(st.lists(signed_pairs, max_size=12))
def test_sorted_values_sort_by_exact_value(pairs):
    values = [Dyadic(*x) for x in pairs] + [mp.make_mpf(from_man_exp(*x))
                                           for x in pairs[:3]]
    got = [_fraction(*_signed(v)) for v in sorted_values(values)]
    assert got == sorted(_fraction(*_signed(v)) for v in values)


def _signed(v):
    sign, man, exp, _ = v._mpf_
    return (-man if sign else man), exp


def test_mpmath_operators_accept_values():
    x = Dyadic(3, -1)
    assert mp.mpf(1) + x == Dyadic(5, -1)
    assert x * mp.mpf(2) == 3 and mp.mpf(2) - x == Dyadic(1, -1)
    assert mp.nstr(x, 3) == "1.5"
    assert float(Dyadic(1, 2000)) == float("inf")
    assert float(Dyadic(-1, 2000)) == float("-inf")


def test_real_roots_put_one_zero_between_the_signs():
    # X^3 (X - 2)(X + 3)
    coeffs = [0, 0, 0, -6, 1, 1]
    roots = real_roots(coeffs, 64)
    assert roots == [-3, 0, 0, 0, 2]
    assert roots[1] is roots[2] is roots[3] is ZERO


def test_nstr_needs_no_mpmath():
    assert _nstr((3, -1)) == "1.5"
    assert _nstr((-101, 0)) == "-101"
    assert _nstr((1, 5000)) == "1*2^5000"
    assert _nstr((1, -5000)) == "1*2^-5000"


GUARD = """
import sys

import graphspectra
from graphspectra import cli
from graphspectra.catalog import cycle_graph, path_graph, with_labels
from graphspectra.errors import AmbiguousClusteringError
from graphspectra.game import GameSession, LoopbackEndpoint, solve_game
from graphspectra.graphs import graph_to_text
from graphspectra.polynomials import (spectral_polynomial,
                                      spectral_poly_from_text,
                                      spectral_poly_to_text)
from graphspectra.reconstruct import reconstruct_from_polynomial
from graphspectra.spectra import (SpectrumSample, cluster_and_assign,
                                  parse_dyadic_fraction, recover_spectral_poly,
                                  simulate_spectrum, spectrum_from_text,
                                  spectrum_to_text)

tmp = sys.argv[1]
assert solve_game(LoopbackEndpoint(GameSession(cycle_graph(5)))).won

dp = with_labels(cycle_graph(5), [1, 2, 4, 8, 16])
P = spectral_polynomial(dp)
back = spectral_poly_from_text(spectral_poly_to_text(P))
assert back == P and reconstruct_from_polynomial(back).m == 5

p4 = with_labels(path_graph(4), [1, 2, 4])
samples = [spectrum_from_text(spectrum_to_text(simulate_spectrum(p4, q, -6, 1)))
           for q in (101, 1009)]
assignment = cluster_and_assign(samples)[1]
assert recover_spectral_poly(assignment, 1009, 7).polynomial == spectral_polynomial(p4)

# a clustering retry formats its message without mpmath
def sample(q, rest):
    values = ["0"] * 3 + ["1", "3"] + rest
    return SpectrumSample(q, -1, 1, 64, tuple(map(parse_dyadic_fraction, values)))
try:
    cluster_and_assign([sample(5, ["10", "20", "30", "40"]),
                        sample(7, ["11", "21", "31", "41"])])
except AmbiguousClusteringError as exc:
    assert "scaling exponent" in str(exc), exc
else:
    raise AssertionError("no clustering error")

graph = f"{tmp}/p4.graph"
open(graph, "w").write(graph_to_text(p4))
assert cli.main(["curve", graph, "-o", f"{tmp}/p4.spoly"]) == 0
for q in (101, 1009):
    assert cli.main(["simulate", graph, "--q", str(q), "--window=-6:1",
                     "-o", f"{tmp}/p4-{q}.spec"]) == 0
assert cli.main(["cluster", f"{tmp}/p4-101.spec", f"{tmp}/p4-1009.spec",
                 "-o", f"{tmp}/p4.clusters"]) == 0
assert cli.main(["recover", f"{tmp}/p4.clusters", "--degree-bound", "7",
                 "-o", f"{tmp}/p4-back.spoly"]) == 0
assert open(f"{tmp}/p4-back.spoly").read() == open(f"{tmp}/p4.spoly").read()
assert "mpmath" not in sys.modules, "mpmath loaded"

fork = f"{tmp}/fork.graph"
open(fork, "w").write("4 3\\n1 2\\n1 3\\n1 4\\n")
assert cli.main(["separate", graph, fork, "-o", f"{tmp}/separate.txt"]) == 0
assert "mpmath" in sys.modules
print("ok")
"""


def test_game_recovery_and_curve_paths_leave_mpmath_unloaded(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(GUARD),
                          str(tmp_path)], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().endswith("ok")

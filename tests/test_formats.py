"""Write -> read -> write must be byte-identical for every file format."""
import random

from hypothesis import example, given
from hypothesis import strategies as st

from graphspectra.catalog import (cospectral_pair, random_connected_graph,
                                  with_labels)
from graphspectra.cli import _assignment_text, _read_assignment
from graphspectra.errors import ValidationError
from graphspectra.game import (GameConfig, GameSession, LoopbackEndpoint,
                               decode_message, encode_message, solve_game)
from graphspectra.graphs import graph_from_text, graph_to_text
from graphspectra.polynomials import (spectral_polynomial,
                                      spectral_poly_from_text,
                                      spectral_poly_to_text)
from graphspectra.spectra import (cluster_and_assign, recover_spectral_poly,
                                  simulate_spectrum, spectrum_from_text,
                                  spectrum_to_text)

from test_integer_clustering import criterion_5_arrangements


def test_graph_files():
    rng = random.Random(1)
    pairs = [cospectral_pair()[0]]
    for _ in range(6):
        g = random_connected_graph(rng.randint(2, 7), rng)
        pairs.append(with_labels(g, rng.sample(range(1, 50), g.m)))
    for dp in pairs:
        text = graph_to_text(dp)
        again = graph_to_text(graph_from_text(text))
        assert again == text
        assert graph_to_text(graph_from_text(again)) == again


def test_polynomial_files():
    rng = random.Random(2)
    for _ in range(6):
        g = random_connected_graph(rng.randint(2, 5), rng)
        dp = with_labels(g, rng.sample(range(1, 12), g.m))
        text = spectral_poly_to_text(spectral_polynomial(dp))
        assert spectral_poly_to_text(spectral_poly_from_text(text)) == text


def test_spectrum_files():
    rng = random.Random(3)
    for q, window in [(5, (0, 1)), (101, (-2, 1)), (13, (-1, 2))]:
        g = random_connected_graph(rng.randint(2, 4), rng)
        dp = with_labels(g, rng.sample(range(1, 7), g.m))
        s = simulate_spectrum(dp, q, window[0], window[1], 192)
        text = spectrum_to_text(s)
        assert spectrum_to_text(spectrum_from_text(text)) == text


def _mpfs(values):
    return [v._mpf_ for v in values]


def test_criterion_5_spectrum_and_cluster_files():
    # every value reads back with its own (sign, mantissa, exponent), every
    # file writes back byte for byte, and the parsed clusters recover P
    for g, labels in criterion_5_arrangements():
        dp = with_labels(g, list(labels))
        D = dp.total_weight
        P = spectral_polynomial(dp)
        samples = [simulate_spectrum(dp, q, 1 - D, 1, 512) for q in (101, 1009)]
        back = []
        for s in samples:
            text = spectrum_to_text(s)
            b = spectrum_from_text(text)
            assert b == s and _mpfs(b.values) == _mpfs(s.values)
            assert spectrum_to_text(b) == text
            back.append(b)
        for a in cluster_and_assign(back):
            text = _assignment_text(a)
            read = _read_assignment(text)
            assert {r: _mpfs(vs) for r, vs in read.levels.items()} == \
                {r: _mpfs(vs) for r, vs in a.levels.items()}
            assert _assignment_text(read) == text
            assert recover_spectral_poly(read, a.q, D).polynomial == P, (
                g.sorted_edges(), labels, a.q)


def test_protocol_transcripts():
    sess = GameSession(cospectral_pair()[0].graph, GameConfig(seed=5), "t")
    solve_game(LoopbackEndpoint(sess))
    dump = "\n".join(f"{d} {line}" for d, line in sess.transcript) + "\n"
    reparsed = []
    for row in dump.strip().splitlines():
        d, line = row.split(" ", 1)
        reparsed.append((d, encode_message(decode_message(line))))
    dump2 = "\n".join(f"{d} {line}" for d, line in reparsed) + "\n"
    assert dump2 == dump


# ---------------------------------------------------------------------------
# Fuzzing: any text either raises ValidationError or parses to an object
# that survives write -> read unchanged.

_JUNK = st.sampled_from(["", "x", "=", "1.5", "-0", "+2", "1_0", "٣", "1e5",
                         "0x10", "-", "nan", "1/3", "3.", ".5"])
_TOKEN = st.one_of(st.integers(-3, 12).map(str), _JUNK)
# hex dyadic values: mostly canonical (odd mantissa), sometimes an even one
_HEX = st.builds(lambda m, e: "0" if m == 0 else
                 f"{'-' if m < 0 else ''}0x{abs(m):x}p{e}",
                 st.integers(-10 ** 6, 10 ** 6).map(lambda m: m | 1 if m % 3 else m),
                 st.integers(-60, 60))


def _text(header, row):
    structured = st.builds(lambda h, rows: "\n".join([h] + rows) + "\n",
                           header, st.lists(row, max_size=8))
    return st.one_of(structured, st.text(max_size=40))


def _header(word, keys):
    """Every key with an integer value, or random fields."""
    complete = st.builds(lambda vs: " ".join([word] + [f"{k}={v}" for k, v in zip(keys, vs)]),
                         st.tuples(*[st.integers(-2, 3)] * len(keys)))
    field = st.one_of(st.builds(lambda k, v: f"{k}={v}", st.sampled_from(keys + ["x"]),
                                _TOKEN), _TOKEN)
    return st.one_of(complete, st.builds(lambda fs: " ".join([word] + fs),
                                         st.lists(field, max_size=6)))


def _round_trips(parse, write, text, touch=lambda obj: None):
    try:
        obj = parse(text)
        touch(obj)
    except ValidationError:
        return
    assert parse(write(obj)) == obj


def _row(*parts):
    return st.builds(lambda ps: " ".join(ps), st.tuples(*parts))


@given(_text(_header("spectrum", ["q", "rmin", "rmax", "prec"]),
             st.one_of(_HEX, _TOKEN)))
@example("spectrum q=5 rmin=2 rmax=1 prec=64\n")  # width 0
@example("spectrum q=5 rmin=0 rmax=1 prec=64\n0\n0\n0x5p-2\n0x3p1\n")
def test_spectrum_parser_fuzz(text):
    _round_trips(spectrum_from_text, spectrum_to_text, text,
                 lambda s: (s.n_per_level, s.zeros_per_level))


@given(_text(st.builds(lambda n: f"spoly n={n}", _TOKEN),
             st.one_of(_row(_TOKEN, _TOKEN, _TOKEN), _row(_TOKEN, _TOKEN))))
@example("spoly n=-1\n")  # no coefficient to be monic
@example("spoly n=2\n1 2 0\n-2 1 -1\n")  # negative Y-degree
def test_spectral_poly_parser_fuzz(text):
    _round_trips(spectral_poly_from_text, spectral_poly_to_text, text)


@given(_text(_row(_TOKEN, _TOKEN),
             st.one_of(_row(_TOKEN, _TOKEN, _TOKEN), _row(_TOKEN, _TOKEN),
                       st.just("# comment"))))
def test_graph_parser_fuzz(text):
    _round_trips(graph_from_text, graph_to_text, text)


@given(_text(_header("clusters", ["q", "prec"]),
             _row(_TOKEN, st.one_of(_HEX, _TOKEN))))
@example("clusters q=5 prec=64\n1 0\n1 0x3p1\n0 0x7p-3\n\nclusters q=7 prec=64\n1 0x1p0\n")
def test_cluster_parser_fuzz(text):
    _round_trips(_read_assignment, _assignment_text, text)

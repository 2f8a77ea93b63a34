import json
import threading
import time
from fractions import Fraction

import pytest

from graphspectra.catalog import (complete_graph, cycle_graph, path_graph,
                                  star_graph, with_labels)
from graphspectra.cli import _read_assignment, main
from graphspectra.game import (GameConfig, GameServer, SocketEndpoint,
                               serve_game, solve_game)
from graphspectra.graphs import (Graph, build_diffusion_pair, graph_from_text,
                                 graph_to_text, is_isomorphic)
from graphspectra.polynomials import spectral_poly_from_text, spectral_polynomial
from graphspectra.spectra import (prediction_error_ratio, simulate_spectrum,
                                  spectrum_to_text)


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.graph"
    path.write_text("3 3\n1 2 1\n1 3 2\n2 3 4\n")
    return path


def test_curve_reconstruct_round_trip(tmp_path, k3_file):
    p3_file = tmp_path / "p3.graph"
    p3_file.write_text("3 2\n1 2 1\n2 3 1000000000\n")
    for source, m in ((k3_file, 3), (p3_file, 2)):
        poly = tmp_path / "first.spoly"
        assert main(["curve", str(source), "-o", str(poly)]) == 0
        out = tmp_path / "back.graph"
        assert main(["reconstruct", str(poly), "-o", str(out)]) == 0
        g = graph_from_text(out.read_text()).graph
        assert g.n == 3 and g.m == m
        # the recovered labels are written, so the curve comes back byte for byte
        again = tmp_path / "again.spoly"
        assert main(["curve", str(out), "-o", str(again)]) == 0
        assert again.read_bytes() == poly.read_bytes()


def test_tangent_cone_and_evaluate(tmp_path, k3_file, capsys):
    poly = tmp_path / "k3.spoly"
    main(["curve", str(k3_file), "-o", str(poly)])
    assert main(["tangent-cone", str(poly)]) == 0
    cone = capsys.readouterr().out
    assert cone.startswith("tcone d=3")
    assert main(["evaluate", str(poly), "--y", "1"]) == 0
    up = capsys.readouterr().out
    assert up.splitlines()[1:] == ["1 3", "-6 2", "9 1"]


def test_simulate_cluster_recover_pipeline(tmp_path, k3_file):
    spoly = tmp_path / "k3.spoly"
    main(["curve", str(k3_file), "-o", str(spoly)])
    s1 = tmp_path / "a.spec"
    s2 = tmp_path / "b.spec"
    assert main(["simulate", str(k3_file), "--q", "101", "--window=0:1",
                 "-o", str(s1)]) == 0
    assert main(["simulate", str(k3_file), "--q", "103", "--window=0:1",
                 "-o", str(s2)]) == 0
    clusters = tmp_path / "k3.clusters"
    assert main(["cluster", str(s1), str(s2), "-o", str(clusters)]) == 0
    # the file as written: one block per prime, recovered at the larger
    text = clusters.read_text()
    assert [ln.split()[1] for ln in text.splitlines()
            if ln.startswith("clusters ")] == ["q=101", "q=103"]
    assert _read_assignment(text).q == 103
    out = tmp_path / "rec.spoly"
    assert main(["recover", str(clusters), "--degree-bound", "7",
                 "-o", str(out)]) == 0
    assert out.read_text() == spoly.read_text()
    # every block must parse, the one not used included
    first_block = text.split("\n\n")[0]
    for second in ("clusters q=103 prec=512\n1 abc\n",
                   "1 0\n", "clusters q=103\n1 0\n"):
        bad = tmp_path / "bad.clusters"
        bad.write_text(first_block + "\n\n" + second)
        assert main(["recover", str(bad), "--degree-bound", "7"]) == 2


def _spectra_at_two_primes(fields, width):
    """Spectrum texts at q = 5 and 7 with `width` levels of K2 each."""
    return tuple(f"spectrum q={q} {fields}\n" + "0\n" * width + f"0x{q}p0\n" * width
                 for q in (5, 7))


# K2 over the window [0, 1] at q = 11 and 13: eigenvalues 0, 2 and 0, 2q
K2_SPECTRA = ("spectrum q=11 rmin=0 rmax=1 prec=64\n0\n0\n0x1p1\n0xbp1\n",
              "spectrum q=13 rmin=0 rmax=1 prec=64\n0\n0\n0x1p1\n0xdp1\n")


def test_recover_refuses_values_outside_level_range(tmp_path):
    # a file of under 300 bytes whose level-2 values lie far below any
    # level-2 eigenvalue at degree bound 7: exit 3 before any product
    clusters = tmp_path / "tiny.clusters"
    clusters.write_text("clusters q=101 prec=64\n1 0\n1 0x1p1\n"
                        + "2 0x1p-1000000\n" * 16)
    assert len(clusters.read_bytes()) < 300
    assert main(["recover", str(clusters), "--degree-bound", "7"]) == 3


def test_cluster_hex_spectra(tmp_path, capsys):
    # the spectra that the spectrum-decimal, -even-mantissa and -uppercase
    # cases below spoil in one line each
    files = []
    for i, text in enumerate(K2_SPECTRA):
        files.append(tmp_path / f"{i}.spec")
        files[-1].write_text(text)
    assert main(["cluster"] + [str(f) for f in files]) == 0
    assert capsys.readouterr().out.split("\n\n")[0].splitlines() == [
        "clusters q=11 prec=64", "1 0", "1 0x1p1", "0 0", "0 0xbp1"]


@pytest.mark.parametrize("command, text, options", [
    ("curve", "2 1\n1 1 1\n", []),
    ("curve", "3 2\n1 x 3\n2 3 1\n", []),
    ("cluster", "spectrum q=5 rmin rmax=1 prec=64\n0\n", []),
    ("reconstruct", "spoly n=2\n1 2 0\n1 2 z\n", []),
    ("reconstruct", "spoly n=2\n1 2 0\n-2 1 -1\n", []),
    ("curve", "3 2\n1 2\n2 3\n", ["--labels", "1,b"]),
    ("curve", "3 2\n1 2\n2 3\n", ["--labels", "1"]),
    ("cluster", "spectrum q=5 rmin=0 rmax=1 prec=64\n0\nabc\n", []),
    ("cluster", "spectrum q=5 rmin=0 rmax=1 prec=64\n0\n1e5\n", []),
    ("cluster", "spectrum q=5 rmin=0 rmax=1 prec=64\n0\n0x1p-10000000\n", []),
    ("recover", "clusters q=5 prec\n1 0\n", ["--degree-bound", "3"]),
    ("evaluate", "spoly n=2\n1 2 0\n-2 1 1\n", ["--y", "abc"]),
    ("separate", "3 2\n1 2\n2 3\n", ["--epsilon", "1/0"]),
    ("cluster", _spectra_at_two_primes("rmin=2 rmax=1 prec=64", 1), []),
    ("cluster", _spectra_at_two_primes("rmin=2 rmax=3 prec=64", 2), []),
    ("cluster", _spectra_at_two_primes("rmin=0 rmax=1 prec=0", 2), []),
    ("cluster", ("spectrum q=0 rmin=-1 rmax=1 prec=64\n0\n0\n0\n0x1p0\n0x3p0\n0x9p0\n",
                 "spectrum q=7 rmin=-1 rmax=1 prec=64\n0\n0\n0\n0x1p0\n0x7p0\n0x31p0\n"), []),
    ("cluster", ("spectrum q=5 rmin=-1 rmax=1 prec=64\n-0x19p0\n0\n0\n0\n0x1p0\n0x5p0\n",
                 "spectrum q=7 rmin=-1 rmax=1 prec=64\n0\n0\n0\n0x1p0\n0x7p0\n0x31p0\n"), []),
    ("cluster", (K2_SPECTRA[0].replace("0x1p1\n0xbp1", "2\n22"), K2_SPECTRA[1]), []),
    ("cluster", (K2_SPECTRA[0].replace("0x1p1", "0x2p0"), K2_SPECTRA[1]), []),
    ("cluster", (K2_SPECTRA[0].replace("0xbp1", "0xBp1"), K2_SPECTRA[1]), []),
    ("recover", "clusters q=5 prec=64\n1 0\n1 0x1p1\n0 0\n0 10\n", ["--degree-bound", "1"]),
], ids=["self-loop", "graph-token", "spectrum-field", "spoly-token",
        "spoly-negative-degree", "labels-token", "labels-count",
        "spectrum-value", "spectrum-exponent", "spectrum-digits",
        "clusters-field", "y-value", "epsilon-value", "spectrum-window-reversed",
        "spectrum-window-without-level-1", "spectrum-precision", "spectrum-prime",
        "spectrum-negative", "spectrum-decimal", "spectrum-even-mantissa",
        "spectrum-uppercase", "clusters-decimal"])
def test_validation_exit_code(tmp_path, command, text, options):
    texts = text if isinstance(text, tuple) else (
        (text,) * (2 if command in ("cluster", "separate") else 1))
    files = []
    for i, t in enumerate(texts):
        bad = tmp_path / f"bad{i}.input"
        bad.write_text(t)
        files.append(str(bad))
    assert main([command] + files + options) == 2


def test_precision_exit_code(tmp_path):
    # ambiguous clustering at tiny primes maps to exit 3
    dp = with_labels(star_graph(4), [1, 1, 1], require_distinct_labels=False)
    files = []
    for q in (3, 5):
        s = simulate_spectrum(dp, q, -1, 1, 160)
        p = tmp_path / f"q{q}.spec"
        p.write_text(spectrum_to_text(s))
        files.append(str(p))
    assert main(["cluster"] + files) == 3


@pytest.mark.parametrize("command, text, options", [
    ("reconstruct", "spoly n=99999999999\n1 99999999999 0\n", []),
    ("curve", "99999999999 1\n1 2\n", []),
    ("simulate", "99999999999 1\n1 2\n", ["--q", "101"])])
def test_header_above_vertex_cap_exits_2_at_once(tmp_path, command, text, options):
    # before any work that grows with the header's n
    bad = tmp_path / "huge.input"
    bad.write_text(text)
    start = time.process_time()
    assert main([command, str(bad)] + options) == 2
    assert time.process_time() - start < 0.1


def test_level_weights_above_cap_exit_2_at_once(tmp_path):
    # a 30-edge path on 2,000,000 vertices with powers-of-two labels: at
    # q = 3 over [0, 2] its largest weight would have 2^30 bits, refused
    # from bit lengths before any weight is built
    graph = tmp_path / "path30.graph"
    graph.write_text("2000000 30\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 31)))
    start = time.process_time()
    assert main(["simulate", str(graph), "--labels", "powers-of-two", "--q", "3",
                 "--window=0:2", "-o", str(tmp_path / "path30.spec")]) == 2
    assert time.process_time() - start < 0.1
    assert not (tmp_path / "path30.spec").exists()


def test_isolated_vertices_cost_nothing(tmp_path):
    # four edges on 2000 vertices: P is X^1995 times the 5-vertex core's
    edges = [(1, 2, 1), (2, 3, 2), (3, 4, 4), (3, 5, 8)]
    graph = tmp_path / "sparse.graph"
    graph.write_text("2000 4\n" + "".join(f"{u} {v} {a}\n" for u, v, a in edges))
    start = time.process_time()
    spoly = tmp_path / "sparse.spoly"
    assert main(["curve", str(graph), "-o", str(spoly)]) == 0
    assert time.process_time() - start < 1
    core = spectral_polynomial(build_diffusion_pair(5, edges))
    P = spectral_poly_from_text(spoly.read_text())
    assert P.coeffs == (P.coeffs[0],) * 1995 + core.coeffs
    assert P.coeffs[0].is_zero()
    start = time.process_time()
    assert main(["simulate", str(graph), "--q", "101", "--window=0:1",
                 "-o", str(tmp_path / "sparse.spec")]) == 0
    assert time.process_time() - start < 1


def test_isolated_vertices_at_200000(tmp_path):
    # one edge on 200,000 vertices: components by union-find, zeros put in
    # front unsorted, only the edge's part of the charpoly scaled, degrees
    # in one pass and one shared zero polynomial; each command stays far
    # below a second, where work per vertex per edge or per level power
    # took seconds to hours
    n = 200_000
    graph = tmp_path / "edge.graph"
    graph.write_text(f"{n} 1\n1 2\n")
    for window, top in (("0:1", ["0x1p1", "0x65p1"]),
                        ("0:2", ["0x1p1", "0x65p1"])):
        spec = tmp_path / "edge.spec"
        start = time.process_time()
        assert main(["simulate", str(graph), "--q", "101", f"--window={window}",
                     "-o", str(spec)]) == 0
        assert time.process_time() - start < 1.5, window
        rows = spec.read_text().splitlines()
        levels = 2 if window == "0:1" else 3
        assert len(rows) == 1 + levels * n
        assert rows[1:1 + levels * (n - 1)] == ["0"] * (levels * (n - 1))
        assert rows[-2:] == top
    spoly = tmp_path / "edge.spoly"
    start = time.process_time()
    assert main(["curve", str(graph), "-o", str(spoly)]) == 0
    assert time.process_time() - start < 1.5
    assert spoly.read_text() == f"spoly n={n}\n1 {n} 0\n-2 {n - 1} 1\n"


@pytest.mark.parametrize("g1, g2", [
    (path_graph(5), Graph.of(5, [(1, 2), (2, 3), (3, 4), (3, 5)])),
    # C_2 is empty, so the second seminorm is 0
    (cycle_graph(4), Graph.of(4, [(1, 2), (2, 3)]))])
def test_separate_json_values_are_exact(tmp_path, g1, g2):
    # every number is a dyadic fraction equal to the report's value exactly
    a, b = tmp_path / "a.graph", tmp_path / "b.graph"
    a.write_text(graph_to_text(g1))
    b.write_text(graph_to_text(g2))
    out = tmp_path / "report.json"
    assert main(["separate", str(a), str(b), "--format", "json",
                 "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    full, _, ratio = prediction_error_ratio(g1, g2, Fraction(1, 1000))
    want = {"hausdorff_distance": [full.hausdorff_distance],
            "separating_vector": full.separating_vector,
            "separating_seminorms": full.separating_seminorms,
            "max_prediction_error": full.max_prediction_error,
            "halved_epsilon_error_ratio": [ratio]}
    for key, values in want.items():
        got = report[key] if isinstance(report[key], list) else [report[key]]
        assert [Fraction(s) for s in got] == [
            (-1) ** sign * Fraction(man) * Fraction(2) ** exp
            for sign, man, exp, _ in (x._mpf_ for x in values)], key
    assert Fraction(report["epsilon"]) == Fraction(1, 1000)


def test_separate_text_report(tmp_path, capsys):
    a = tmp_path / "a.graph"
    b = tmp_path / "b.graph"
    a.write_text("5 4\n1 2 1\n2 3 1\n3 4 1\n4 5 1\n")
    b.write_text("5 4\n1 2 1\n2 3 1\n3 4 1\n3 5 1\n")
    assert main(["separate", str(a), str(b), "--epsilon", "1/1000"]) == 0
    out = capsys.readouterr().out
    assert "error ratio" in out and "separating vector  found" in out


def test_oracle_check(capsys):
    assert main(["oracle-check", "--max-n", "4"]) == 0
    assert "verified" in capsys.readouterr().out


def test_game_serve_runs_one_loop(tmp_path, monkeypatch, capsys):
    # game-serve serves in its own thread and nowhere else; a game played
    # against it from another thread wins, and then stops the loop
    graph = tmp_path / "k4.graph"
    graph.write_text(graph_to_text(complete_graph(4)))
    loops, players, results = [], [], []
    serve = GameServer.serve_forever

    def serve_and_play(server, *args, **kwargs):
        loops.append(threading.current_thread())

        def play():
            endpoint = SocketEndpoint(*server.server_address, timeout=60)
            try:
                results.append(solve_game(endpoint))
            finally:
                endpoint.close()
                server.shutdown()

        players.append(threading.Thread(target=play))
        players[-1].start()
        serve(server, *args, **kwargs)

    monkeypatch.setattr(GameServer, "serve_forever", serve_and_play)
    assert main(["game-serve", str(graph)]) == 0
    for player in players:
        player.join(timeout=60)
        assert not player.is_alive()
    assert loops == [threading.current_thread()]
    assert [r.primes_used for r in results] == [(3, 11)] and results[0].won
    assert capsys.readouterr().err.startswith("serving hidden graph on 127.0.0.1:")


def test_game_over_socket(tmp_path, capsys):
    hidden = star_graph(4)
    server, (host, port) = serve_game(hidden, GameConfig(seed=6))
    try:
        out = tmp_path / "won.graph"
        rc = main(["game-solve", f"{host}:{port}", "-o", str(out)])
        assert rc == 0
        g = graph_from_text(out.read_text()).graph
        assert is_isomorphic(g, hidden)
    finally:
        server.shutdown()
        server.server_close()

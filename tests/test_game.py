import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from graphspectra import game
from graphspectra.catalog import (complete_graph, connected_graphs,
                                  cycle_graph, path_graph,
                                  random_connected_graph, with_labels)
from graphspectra.errors import (AmbiguousClusteringError, PrecisionError,
                                 ValidationError)
from graphspectra.forests import EDGE_CAP, buslov_polynomial
from graphspectra.game import (GameConfig, GameSession, LoopbackEndpoint,
                               SocketEndpoint, SolveResult, SolverConfig,
                               decode_message, encode_message, serve_game,
                               solve_game)
from graphspectra.graphs import Graph, is_isomorphic


def _session(graph=None, **kwargs):
    return GameSession(graph or complete_graph(3), GameConfig(**kwargs))


def _wins(graph, game_config, solver_config=None):
    session = GameSession(graph, game_config)
    return solve_game(LoopbackEndpoint(session), solver_config).won


class TestProtocolRules:
    def test_happy_path_shapes(self):
        s = _session()
        assert s.handle({"type": "hello"})["type"] == "welcome"
        ack = s.handle({"type": "choose_delta", "labels": [1, 2, 4]})
        assert ack == {"type": "delta_ack", "edge_count": 3}
        reply = s.handle({"type": "choose_prime", "q": 101})
        assert reply["type"] == "spectrum"
        assert reply["q"] == 101 and (reply["r_min"], reply["r_max"]) == (0, 1)
        assert len(reply["values"]) == 3 * 2
        assert all(isinstance(v, str) for v in reply["values"])
        verdict = s.handle({"type": "submit", "n": 3,
                            "edges": [[1, 2], [1, 3], [2, 3]]})
        assert verdict == {"type": "verdict", "result": "win"}

    def test_hello_required_first(self):
        s = _session()
        r = s.handle({"type": "choose_prime", "q": 101})
        assert r["type"] == "error" and r["code"] == "bad_phase"

    def test_delta_only_once(self):
        s = _session()
        s.handle({"type": "hello"})
        s.handle({"type": "choose_delta", "labels": [1, 2, 4]})
        r = s.handle({"type": "choose_delta", "labels": [1, 2, 4]})
        assert r["code"] == "delta_already_fixed"

    def test_oversized_label_list_accepted(self):
        s = _session()
        s.handle({"type": "hello"})
        ack = s.handle({"type": "choose_delta", "labels": [1, 2, 4, 8, 16]})
        assert ack == {"type": "delta_ack", "edge_count": 3}

    def test_short_label_list_rejected_session_stays_open(self):
        s = _session()
        s.handle({"type": "hello"})
        r = s.handle({"type": "choose_delta", "labels": [1, 2]})
        assert r["code"] == "label_count"
        ack = s.handle({"type": "choose_delta", "labels": [1, 2, 4]})
        assert ack["type"] == "delta_ack"

    def test_non_prime_power_rejected(self):
        s = _session()
        s.handle({"type": "hello"})
        s.handle({"type": "choose_delta", "labels": [1, 2, 4]})
        r = s.handle({"type": "choose_prime", "q": 6})
        assert r["code"] == "bad_prime"
        assert s.handle({"type": "choose_prime", "q": 7})["type"] == "spectrum"

    def test_prime_beyond_checked_range_rejected(self):
        s = _session()
        s.handle({"type": "hello"})
        s.handle({"type": "choose_delta", "labels": [1, 2, 4]})
        r = s.handle({"type": "choose_prime", "q": 2 ** 64 + 13})
        assert r["code"] == "bad_prime" and "2^64" in r["message"]
        assert s.phase == "playing"

    def test_submit_closes_session(self):
        s = _session()
        s.handle({"type": "hello"})
        s.handle({"type": "choose_delta", "labels": [1, 2, 4]})
        s.handle({"type": "submit", "n": 2, "edges": [[1, 2]]})
        r = s.handle({"type": "hello"})
        assert r["code"] == "closed"

    def test_losing_submission(self):
        s = _session(cospectral_left())
        s.handle({"type": "hello"})
        s.handle({"type": "choose_delta", "labels": [1 << i for i in range(10)]})
        verdict = s.handle({
            "type": "submit",
            "n": 8,
            "edges": [list(e) for e in cospectral_right().sorted_edges()]})
        assert verdict == {"type": "verdict", "result": "lose"}

    def test_bad_json_line(self):
        s = _session()
        reply = s.handle_line("this is not json")
        assert decode_message(reply)["code"] == "bad_message"

    def test_deeply_nested_line_answered(self):
        # json.loads raises RecursionError on this line
        s = _session()
        reply = s.handle_line("[" * 100_000)
        assert decode_message(reply)["code"] == "bad_message"
        assert s.handle({"type": "hello"})["type"] == "welcome"

    @pytest.mark.parametrize("labels", ["[true,2,4]", "[1.0,2,4]",
                                        '["1",2,4]', "[1,2,4.5]"])
    def test_labels_must_be_json_integers(self, labels):
        # a bool, a float or a string is refused, not stored as a label
        s = _session(path_graph(3))
        s.handle({"type": "hello"})
        r = decode_message(s.handle_line(
            '{"type":"choose_delta","labels":%s}' % labels))
        assert r["code"] == "bad_labels" and s.pair is None
        assert s.handle({"type": "choose_delta", "labels": [1, 2]})["type"] == "delta_ack"

    @pytest.mark.parametrize("q", ["true", "3.0", '"3"', "101.0", '"101"'])
    def test_prime_must_be_a_json_integer(self, q):
        s = _session()
        s.handle({"type": "hello"})
        s.handle({"type": "choose_delta", "labels": [1, 2, 4]})
        r = decode_message(s.handle_line('{"type":"choose_prime","q":%s}' % q))
        assert r["code"] == "bad_prime"

    def test_level_weights_above_cap_answered_invalid(self):
        # the label 2^20 at q = 3 would build a level-0 weight of about
        # 2^21 bits: refused before simulating, and the session stays open
        s = _session(path_graph(3))
        s.handle({"type": "hello"})
        s.handle({"type": "choose_delta", "labels": [1, 1 << 20]})
        start = time.process_time()
        r = s.handle({"type": "choose_prime", "q": 3})
        assert time.process_time() - start < 0.1
        assert r["type"] == "error" and r["code"] == "invalid"
        assert "exceed the cap" in r["message"]
        assert s.handle({"type": "choose_prime", "q": 3})["code"] == "invalid"

    @pytest.mark.parametrize("n, edges", [
        ("3.9", "[[1,2],[1,3],[2,3]]"), ('"3"', "[[1,2],[1,3],[2,3]]"),
        ("true", "[[1,2]]"), ("3.0", "[[1,2],[1,3],[2,3]]"),
        ("3", "[[1,2.0],[1,3],[2,3]]"), ("3", '[["1",2],[1,3],[2,3]]'),
        ("3", "[[true,2],[1,3],[2,3]]"), ("3", "[[1,2,3]]"), ("3", "[1,2]"),
        ("3", '"1 2"'), ("3", None)])
    def test_submission_must_hold_json_integers(self, n, edges):
        # a refused submission leaves the session open for a readable one
        s = _session()
        s.handle({"type": "hello"})
        s.handle({"type": "choose_delta", "labels": [1, 2, 4]})
        fields = f'"n":{n}' + ("" if edges is None else f',"edges":{edges}')
        r = decode_message(s.handle_line('{"type":"submit",%s}' % fields))
        assert r["code"] == "bad_submission" and s.phase == "playing"
        verdict = s.handle({"type": "submit", "n": 3,
                            "edges": [[1, 2], [1, 3], [2, 3]]})
        assert verdict == {"type": "verdict", "result": "win"}

    def test_hidden_graph_must_be_connected(self):
        with pytest.raises(ValidationError):
            GameSession(Graph.of(4, [(1, 2), (3, 4)]))


def cospectral_left():
    from graphspectra.catalog import cospectral_pair_graphs

    return cospectral_pair_graphs()[0]


def cospectral_right():
    from graphspectra.catalog import cospectral_pair_graphs

    return cospectral_pair_graphs()[1]


class TestSolver:
    def test_k3(self):
        res = solve_game(LoopbackEndpoint(_session(seed=4)))
        assert res.won and is_isomorphic(res.graph, complete_graph(3))
        assert len(res.primes_used) == 2

    def test_p4(self):
        res = solve_game(LoopbackEndpoint(_session(path_graph(4), seed=1)))
        assert res.won

    def test_single_vertex(self):
        res = solve_game(LoopbackEndpoint(GameSession(Graph(1))))
        assert res.won

    def test_budget_exhausted_no_submit(self):
        sess = _session(cycle_graph(4))
        res = solve_game(LoopbackEndpoint(sess),
                         SolverConfig(primes=(2,)))
        assert not res.won and res.verdict is None
        assert sess.phase != "closed"  # never submitted

    def test_every_connected_graph_up_to_4(self):
        for n in range(1, 5):
            for g in connected_graphs(n):
                res = solve_game(LoopbackEndpoint(
                    GameSession(g, GameConfig(seed=n))))
                assert res.won, sorted(g.edges)

    def test_small_primes_escalate_instead_of_crashing(self):
        # at q = 5 and 7 the digit decode fails on most 4-vertex graphs;
        # the solver must move on to the next prime, not raise
        for n in (3, 4):
            for g in connected_graphs(n):
                res = solve_game(LoopbackEndpoint(
                    GameSession(g, GameConfig(seed=n))),
                    SolverConfig(primes=(5, 7, 11, 13)))
                assert isinstance(res, SolveResult)
                if res.won:
                    assert is_isomorphic(res.graph, g), sorted(g.edges)

    def test_prime_two_decodes_at_larger_prime(self):
        # q = 2 gives no digit-decode node in the window [0, 1], so each
        # pair is decoded at its larger prime and the solver escalates
        graphs = [g for n in (2, 3) for g in connected_graphs(n)]
        for g in graphs:
            res = solve_game(LoopbackEndpoint(GameSession(g, GameConfig(seed=1))),
                             SolverConfig(primes=(3, 2, 5, 7)))
            assert res.won and is_isomorphic(res.graph, g), sorted(g.edges)
        # the 3-vertex graphs carry the coefficient 3, which needs a base
        # of at least 7: without one the solver gives up, it does not raise
        results = [solve_game(LoopbackEndpoint(GameSession(g, GameConfig(seed=1))),
                              SolverConfig(primes=(3, 2, 5)))
                   for g in graphs]
        assert [(r.won, r.verdict) for r in results] == [
            (True, "win"), (False, None), (False, None)]

    def test_prime_two_reply_certifies_both_levels(self):
        # level 0 at q = 2 has roots next to powers of two, which Newton
        # steps round onto; both levels must still certify
        edges = [(1, 2), (1, 3), (1, 6), (2, 5), (2, 7), (3, 6), (3, 7),
                 (4, 6), (5, 6)]
        s = GameSession(Graph.of(7, edges), GameConfig(seed=0))
        s.handle({"type": "hello"})
        s.handle({"type": "choose_delta",
                  "labels": [1 << i for i in range(EDGE_CAP)]})
        reply = s.handle({"type": "choose_prime", "q": 2})
        assert reply["type"] == "spectrum" and len(reply["values"]) == 2 * 7

    def test_precision_reply_skips_to_next_prime(self, monkeypatch):
        # the server answers the first choose_prime with a "precision"
        # error; the solver must move on to its next prime and still win
        calls = []
        simulate = game.simulate_spectrum

        def failing_once(*args, **kwargs):
            calls.append(args[1])
            if len(calls) == 1:
                raise PrecisionError("injected")
            return simulate(*args, **kwargs)

        monkeypatch.setattr(game, "simulate_spectrum", failing_once)
        res = solve_game(LoopbackEndpoint(
            GameSession(path_graph(3), GameConfig(seed=1))))
        assert res.won and is_isomorphic(res.graph, path_graph(3))
        # the reply at q = 3 is an error, so the solver walks the fixed list
        assert calls == [3, 101, 1009]
        assert res.primes_used == (101, 1009)

    def test_negative_spectrum_value_rejected(self):
        # Laplacian spectra are non-negative: a reply holding a negative
        # value is malformed, like a file holding one
        class Negating(LoopbackEndpoint):
            def request(self, msg):
                reply = super().request(msg)
                if reply.get("type") == "spectrum":
                    reply = dict(reply, values=["-1"] + reply["values"][1:])
                return reply

        with pytest.raises(ValidationError, match="non-negative"):
            solve_game(Negating(GameSession(path_graph(3), GameConfig(seed=1))))

    @pytest.mark.parametrize("respell", ["decimal", "unreduced", "plus"])
    def test_non_canonical_spectrum_value_rejected(self, respell):
        # each value has one spelling on the wire: the same value as a
        # decimal numeral, an unreduced fraction or with a plus sign is a
        # malformed reply, on which game-solve exits 2
        class Respelling(LoopbackEndpoint):
            def request(self, msg):
                reply = super().request(msg)
                if reply.get("type") == "spectrum":
                    values = list(reply["values"])
                    i = next(i for i, v in enumerate(values) if "/" in v)
                    f = Fraction(values[i])
                    k = f.denominator.bit_length() - 1  # f = m / 2^k
                    digits = str(f.numerator * 5 ** k).rjust(k + 1, "0")
                    values[i] = {
                        "decimal": f"{digits[:-k]}.{digits[-k:]}",
                        "unreduced": f"{2 * f.numerator}/{2 * f.denominator}",
                        "plus": "+" + values[i]}[respell]
                    reply = dict(reply, values=values)
                return reply

        with pytest.raises(ValidationError, match="canonical"):
            solve_game(Respelling(GameSession(path_graph(3), GameConfig(seed=1))))

    def test_labels_offered_up_to_the_edge_cap(self):
        # K7 has 21 edges, one more than reconstruction accepts: the server
        # refuses the label list before computing any spectrum
        sess = GameSession(complete_graph(7))
        start = time.process_time()
        with pytest.raises(ValidationError, match="need at least 21 labels"):
            solve_game(LoopbackEndpoint(sess))
        assert time.process_time() - start < 1
        sent = decode_message(sess.transcript[2][1])
        assert sent["labels"] == [1 << i for i in range(EDGE_CAP)]
        assert decode_message(sess.transcript[3][1])["code"] == "label_count"
        # a graph within the cap is labeled with the first m of them
        sess = _session(path_graph(4), seed=1)
        assert solve_game(LoopbackEndpoint(sess)).won
        assert sorted(sess.pair.label_values()) == [1, 2, 4]

    def test_forest_weight_bound_is_the_largest_coefficient(self):
        # with powers-of-two labels each monomial of P is one spanning
        # forest, whose coefficient is the product of its tree sizes: the
        # bound holds on every graph and is reached on n vertices
        assert [game._forest_weight_bound(n) for n in range(1, 12)] == [
            1, 2, 3, 4, 6, 9, 12, 18, 27, 36, 54]
        for n in range(1, 7):
            largest = [max(abs(c) for c, _, _ in buslov_polynomial(
                           with_labels(g, [1 << i for i in range(g.m)])).monomials())
                       for g in connected_graphs(n)]
            assert max(largest) == game._forest_weight_bound(n), n

    def test_criterion_8_graphs_use_the_derived_pair(self):
        for n in range(1, 6):
            for g in connected_graphs(n):
                res = solve_game(LoopbackEndpoint(
                    GameSession(g, GameConfig(seed=n))))
                assert res.won, sorted(g.edges)
                assert res.primes_used == (3, game._decode_prime(n))
        assert [game._decode_prime(n) for n in (4, 5, 6, 8)] == [11, 13, 19, 37]

    def test_failed_derived_pair_escalates(self, monkeypatch):
        cluster = game.cluster_and_assign
        calls = []

        def failing_once(samples):
            calls.append(tuple(s.q for s in samples))
            if len(calls) == 1:
                raise AmbiguousClusteringError("injected")
            return cluster(samples)

        monkeypatch.setattr(game, "cluster_and_assign", failing_once)
        res = solve_game(LoopbackEndpoint(
            GameSession(cycle_graph(5), GameConfig(seed=2))))
        assert res.won and is_isomorphic(res.graph, cycle_graph(5))
        assert calls == [(3, 13), (13, 101)]
        assert res.primes_used == (3, 13, 101)

    @pytest.mark.parametrize("window", [(-3, 1), (-1, 1), (1, 2)])
    def test_derived_primes_lose_nothing_the_fixed_list_wins(self, window):
        fixed = SolverConfig(primes=(101, 1009, 10007))
        for n in range(1, 6):
            for g in connected_graphs(n):
                for seed in (n, n + 10):
                    config = GameConfig(*window, seed)
                    assert _wins(g, config) or not _wins(g, config, fixed), (
                        sorted(g.edges), seed)

    def test_window_straddling_level_one(self):
        # levels below and above 1 are factored apart, so [0, 2] wins
        for n in range(2, 6):
            for g in connected_graphs(n):
                assert _wins(g, GameConfig(0, 2, seed=n)), sorted(g.edges)

    def test_random_n6(self):
        rng = random.Random(12)
        for i in range(3):
            g = random_connected_graph(6, rng)
            res = solve_game(LoopbackEndpoint(
                GameSession(g, GameConfig(seed=i))))
            assert res.won


class TestTransportsAndDeterminism:
    def test_socket_round_trip(self):
        server, (host, port) = serve_game(cycle_graph(5), GameConfig(seed=2))
        try:
            ep = SocketEndpoint(host, port)
            try:
                res = solve_game(ep)
            finally:
                ep.close()
            assert res.won and is_isomorphic(res.graph, cycle_graph(5))
        finally:
            server.shutdown()
            server.server_close()

    def test_non_utf8_line_answered_over_socket(self):
        server, (host, port) = serve_game(path_graph(3), GameConfig(seed=1))
        try:
            ep = SocketEndpoint(host, port, timeout=30)
            try:
                ep.sock.sendall(b"\xff\xfe\n")
                reply = decode_message(ep.reader.readline())
                assert reply["type"] == "error" and reply["code"] == "bad_message"
                assert ep.request({"type": "hello"})["type"] == "welcome"
            finally:
                ep.close()
        finally:
            server.shutdown()
            server.server_close()

    def test_precision_failure_answered_over_socket(self, monkeypatch):
        # a PrecisionError while simulating must come back as a protocol
        # error, and the connection must keep serving later requests
        calls = []
        simulate = game.simulate_spectrum

        def failing_once(*args, **kwargs):
            calls.append(args[1])
            if len(calls) == 1:
                raise PrecisionError("working precision exhausted")
            return simulate(*args, **kwargs)

        monkeypatch.setattr(game, "simulate_spectrum", failing_once)
        server, (host, port) = serve_game(path_graph(3), GameConfig(seed=1))
        try:
            ep = SocketEndpoint(host, port, timeout=30)
            try:
                assert ep.request({"type": "hello"})["type"] == "welcome"
                ep.request({"type": "choose_delta", "labels": [1, 2]})
                err = ep.request({"type": "choose_prime", "q": 101})
                assert err == {"type": "error", "code": "precision",
                               "message": "working precision exhausted"}
                reply = ep.request({"type": "choose_prime", "q": 101})
                assert reply["type"] == "spectrum" and len(reply["values"]) == 6
            finally:
                ep.close()
        finally:
            server.shutdown()
            server.server_close()
        assert calls == [101, 101]

    def test_replayable_transcripts(self):
        runs = []
        for _ in range(2):
            sess = GameSession(path_graph(4), GameConfig(seed=9), "s")
            res = solve_game(LoopbackEndpoint(sess))
            runs.append((tuple(sess.transcript), res.transcript))
        assert runs[0] == runs[1]

    def test_spectrum_is_pure_function_of_pair_and_prime(self):
        # two sessions over the same hidden pair must emit identical spectra
        replies = []
        for _ in range(2):
            s = _session(path_graph(4), seed=3)
            s.handle({"type": "hello"})
            s.handle({"type": "choose_delta", "labels": [1, 2, 4]})
            replies.append(encode_message(
                s.handle({"type": "choose_prime", "q": 101})))
        assert replies[0] == replies[1]


# ---------------------------------------------------------------------------
# Any sequence of lines gets one protocol reply per line


_REPLY_TYPES = {"welcome", "delta_ack", "spectrum", "verdict", "error"}
_json_scalar = (st.none() | st.booleans() | st.integers() | st.text(max_size=8)
                | st.floats(allow_nan=False, allow_infinity=False))
_json = st.recursive(_json_scalar,
                     lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(st.text(max_size=6), inner, max_size=4),
                     max_leaves=12)
# Labels stay at most 16: a request's work is not capped yet, and large
# labels make one spectrum arbitrarily expensive.
_labels = (st.lists(st.integers(-2, 16), max_size=6)
           | st.lists(_json_scalar, max_size=4) | _json_scalar)
_q = (st.sampled_from([2, 3, 4, 6, 9, 101, 2 ** 61 - 1, 2 ** 64 + 13, 3 ** 40])
      | st.integers(-3, 200) | st.integers(2 ** 63, 2 ** 80) | _json_scalar)


class ProtocolMachine(RuleBasedStateMachine):
    """Sends well-formed, malformed and out-of-phase lines, as str or as
    bytes, to one session; every line must get exactly one decodable
    protocol message back, recorded in the transcript, and no exception may
    escape handle_line."""

    def __init__(self):
        super().__init__()
        self.session = GameSession(path_graph(3), GameConfig(seed=1))

    def send(self, line, as_bytes=False):
        if as_bytes:
            line = line.encode("utf-8", "surrogatepass")
        before = len(self.session.transcript)
        reply = self.session.handle_line(line)
        assert isinstance(reply, str) and "\n" not in reply
        msg = decode_message(reply)
        assert msg["type"] in _REPLY_TYPES
        if msg["type"] == "error":
            assert set(msg) == {"type", "code", "message"}
            assert isinstance(msg["code"], str) and isinstance(msg["message"], str)
        assert len(self.session.transcript) == before + 2
        assert self.session.transcript[-1] == ("send", reply)

    def send_message(self, msg, as_bytes):
        self.send(encode_message(msg), as_bytes)

    @initialize(phase=st.sampled_from(["awaiting_hello", "awaiting_delta",
                                       "playing"]),
                labels=st.lists(st.integers(1, 16), min_size=2, max_size=4,
                                unique=True))
    def open_session(self, phase, labels):
        if phase != "awaiting_hello":
            self.send_message({"type": "hello"}, False)
        if phase == "playing":
            self.send_message({"type": "choose_delta", "labels": labels},
                              False)
        assert self.session.phase == phase

    @rule(as_bytes=st.booleans())
    def hello(self, as_bytes):
        self.send_message({"type": "hello"}, as_bytes)

    @rule(labels=_labels, as_bytes=st.booleans())
    def choose_delta(self, labels, as_bytes):
        self.send_message({"type": "choose_delta", "labels": labels}, as_bytes)

    @rule(q=_q, as_bytes=st.booleans())
    def choose_prime(self, q, as_bytes):
        self.send_message({"type": "choose_prime", "q": q}, as_bytes)

    @rule(n=_json_scalar, edges=_json, as_bytes=st.booleans())
    def submit(self, n, edges, as_bytes):
        self.send_message({"type": "submit", "n": n, "edges": edges}, as_bytes)

    @rule(msg=st.dictionaries(st.sampled_from(["type", "q", "labels", "n"]),
                              _json, max_size=3),
          as_bytes=st.booleans())
    def any_object(self, msg, as_bytes):
        self.send_message(msg, as_bytes)

    @rule(line=st.text(max_size=40), as_bytes=st.booleans())
    def any_text(self, line, as_bytes):
        self.send(line, as_bytes)

    @rule(line=st.binary(max_size=40))
    def any_bytes(self, line):
        self.send(line)

    @rule(inside=st.booleans(), as_bytes=st.booleans())
    def deep_nesting(self, inside, as_bytes):
        # json.loads, and the encoder a few frames deeper, run out of stack
        # at depths just below the recursion limit less the frames in use
        frames, f = 0, sys._getframe()
        while f:
            frames, f = frames + 1, f.f_back
        edge = sys.getrecursionlimit() - frames
        for depth in range(edge - 40, edge + 10):
            nested = "[" * depth + "]" * depth
            self.send('{"type": "hello", "x": %s}' % nested if inside
                      else nested, as_bytes)


TestProtocolMachine = ProtocolMachine.TestCase
TestProtocolMachine.settings = settings(max_examples=40,
                                        stateful_step_count=25, deadline=None)

"""The hidden-graph recovery game as a wire protocol.

A server holds a secret connected graph.  The solver fixes edge labels
once (sent as an oversized list; the server applies a private ordering to
its edges and reveals only the edge count), requests the spectrum window
for primes of its choosing, and must finally submit a graph isomorphic to
the hidden one.  Messages are UTF-8 line-delimited JSON objects with a
mandatory "type" field; spectrum values travel as exact decimal strings.
"""
from __future__ import annotations

import json
import random
import socket
import socketserver
import threading
from dataclasses import dataclass, field

from .errors import AmbiguousClusteringError, PrecisionError, ValidationError
from .forests import EDGE_CAP
from .graphs import Graph, build_diffusion_pair, is_isomorphic
from .reconstruct import reconstruct_from_polynomial
from .spectra import (SpectrumSample, _is_prime, cluster_and_assign,
                      exact_decimal, is_prime_power, parse_exact_decimal,
                      recover_spectral_poly, simulate_spectrum)


def encode_message(msg):
    """Canonical one-line JSON encoding (stable key order, no spaces)."""
    return json.dumps(msg, sort_keys=True, separators=(",", ":"))


def decode_message(line):
    """The message object on one line, given as str or as UTF-8 bytes."""
    try:
        msg = json.loads(line.decode("utf-8") if isinstance(line, bytes)
                         else line)
    except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or nesting
        raise ValidationError(f"undecodable message: {exc}")
    if not isinstance(msg, dict) or "type" not in msg:
        raise ValidationError("message must be an object with a 'type' field")
    return msg


@dataclass
class GameConfig:
    """Server-side knobs: the spectrum window and the seed of the private
    edge order used when assigning the solver's labels."""

    r_min: int = 0
    r_max: int = 1
    seed: int = 0


@dataclass
class GameSession:
    """One hidden graph, one solver; messages processed strictly in order."""

    hidden_graph: Graph
    config: GameConfig = field(default_factory=GameConfig)
    session_id: str = "0"

    def __post_init__(self):
        if not self.hidden_graph.is_connected():
            raise ValidationError("hidden graph must be connected")
        self.phase = "awaiting_hello"
        self.pair = None
        self.transcript = []

    def handle(self, msg):
        self.transcript.append(("recv", encode_message(msg)))
        try:
            reply = self._dispatch(msg)
        except ValidationError as exc:
            reply = {"type": "error", "code": "invalid", "message": str(exc)}
        except PrecisionError as exc:
            reply = {"type": "error", "code": "precision", "message": str(exc)}
        self.transcript.append(("send", encode_message(reply)))
        return reply

    def handle_line(self, line):
        """The encoded reply to one line, given as str or as UTF-8 bytes."""
        try:
            msg = decode_message(line)
            return encode_message(self.handle(msg))
        except (ValidationError, RecursionError) as exc:
            # a RecursionError here comes from recording msg: json.loads
            # accepted nesting that the encoder, a few frames deeper, cannot
            reply = {"type": "error", "code": "bad_message", "message": str(exc)}
            if isinstance(line, bytes):
                line = line.decode("utf-8", "replace")
            self.transcript.append(("recv", line.strip()))
            self.transcript.append(("send", encode_message(reply)))
            return encode_message(reply)

    def _dispatch(self, msg):
        kind = msg.get("type")
        if self.phase == "closed":
            return self._error("closed", "session is closed")
        if kind == "hello":
            if self.phase != "awaiting_hello":
                return self._error("bad_phase", "hello already received")
            self.phase = "awaiting_delta"
            return {"type": "welcome", "session_id": self.session_id}
        if self.phase == "awaiting_hello":
            return self._error("bad_phase", "say hello first")
        if kind == "choose_delta":
            return self._choose_delta(msg)
        if kind == "choose_prime":
            return self._choose_prime(msg)
        if kind == "submit":
            return self._submit(msg)
        return self._error("bad_type", f"unknown message type {kind!r}")

    def _error(self, code, message):
        return {"type": "error", "code": code, "message": message}

    def _choose_delta(self, msg):
        if self.pair is not None:
            return self._error("delta_already_fixed",
                               "diffusion parameters may be chosen only once")
        labels = msg.get("labels")
        if (not isinstance(labels, list)
                or any(not isinstance(a, int) or a <= 0 for a in labels)):
            return self._error("bad_labels",
                               "labels must be a list of positive integers")
        if len(set(labels)) != len(labels):
            return self._error("bad_labels", "labels must be distinct")
        m = self.hidden_graph.m
        if len(labels) < m:
            return self._error("label_count",
                               f"need at least {m} labels, got {len(labels)}")
        order = list(self.hidden_graph.sorted_edges())
        random.Random(self.config.seed).shuffle(order)
        self.pair = build_diffusion_pair(
            self.hidden_graph.n,
            [(u, v, a) for (u, v), a in zip(order, labels[:m])])
        self.phase = "playing"
        return {"type": "delta_ack", "edge_count": m}

    def _choose_prime(self, msg):
        if self.pair is None:
            return self._error("bad_phase", "choose_delta must come first")
        q = msg.get("q")
        try:
            prime_power = isinstance(q, int) and is_prime_power(q)
        except ValidationError as exc:  # q beyond the checked range
            return self._error("bad_prime", str(exc))
        if not prime_power:
            return self._error("bad_prime", f"q={q!r} is not a prime power")
        sample = simulate_spectrum(self.pair, q, self.config.r_min,
                                   self.config.r_max)
        return {
            "type": "spectrum",
            "q": sample.q,
            "r_min": sample.r_min,
            "r_max": sample.r_max,
            "precision_bits": sample.precision_bits,
            "values": [exact_decimal(v) for v in sample.values],
        }

    def _submit(self, msg):
        if self.pair is None:
            return self._error("bad_phase", "choose_delta must come first")
        try:
            candidate = Graph.of(int(msg["n"]),
                                 [tuple(e) for e in msg["edges"]])
        except (KeyError, TypeError, ValueError) as exc:
            return self._error("bad_submission", f"unreadable graph: {exc}")
        self.phase = "closed"
        won = is_isomorphic(candidate, self.hidden_graph)
        return {"type": "verdict", "result": "win" if won else "lose"}


class LoopbackEndpoint:
    """In-process transport: request/reply against a session object."""

    def __init__(self, session):
        self.session = session

    def request(self, msg):
        return self.session.handle(msg)

    def close(self):
        pass


class SocketEndpoint:
    """Client side of the line-delimited JSON transport."""

    def __init__(self, host, port, timeout=600.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.reader = self.sock.makefile("r", encoding="utf-8")
        self.writer = self.sock.makefile("w", encoding="utf-8")

    def request(self, msg):
        self.writer.write(encode_message(msg) + "\n")
        self.writer.flush()
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return decode_message(line)

    def close(self):
        self.sock.close()


class GameServer(socketserver.ThreadingTCPServer):
    """One session per connection; each connection gets the same hidden graph."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, hidden_graph, config=None):
        self.hidden_graph = hidden_graph
        self.config = config or GameConfig()
        self._session_counter = 0
        super().__init__(address, _GameHandler)

    def next_session_id(self):
        self._session_counter += 1
        return str(self._session_counter)


class _GameHandler(socketserver.StreamRequestHandler):
    def handle(self):
        session = GameSession(self.server.hidden_graph, self.server.config,
                              self.server.next_session_id())
        while session.phase != "closed":
            raw = self.rfile.readline()
            if not raw:
                break
            line = raw.strip()
            if not line:
                continue
            reply = session.handle_line(line)
            self.wfile.write((reply + "\n").encode("utf-8"))
            self.wfile.flush()


def serve_game(hidden_graph, config=None, host="127.0.0.1", port=0):
    """Start a server thread; returns (server, (host, port)). Caller shuts down."""
    server = GameServer((host, port), hidden_graph, config)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, server.server_address


@dataclass
class SolverConfig:
    """The primes the solver asks for.  None (the default) derives them
    from the game, see solve_game; a tuple means exactly these primes, in
    this order."""

    primes: tuple | None = None


# asked in this order, after the derived pair fails or when q = 3 does
_FALLBACK_PRIMES = (101, 1009, 10007)


def _forest_weight_bound(n):
    """gamma(n), the largest product of part sizes over the partitions of n:
    1, 2, 3, 4, 6, 9, 12, 18, 27, ... (as many 3s as fit, a 4 or a 2 for
    the rest)."""
    if n <= 4:
        return max(n, 1)
    k, rest = divmod(n, 3)
    return {0: 3 ** k, 1: 4 * 3 ** (k - 1), 2: 2 * 3 ** k}[rest]


def _decode_prime(n):
    """The smallest prime q > max(3, 2 gamma(n)): with powers-of-two
    labels every coefficient of P has |c| <= gamma(n), so the balanced
    base-q digits of P(X, q) are its coefficients."""
    q = max(3, 2 * _forest_weight_bound(n)) + 1
    while not _is_prime(q):
        q += 1
    return q


@dataclass
class SolveResult:
    won: bool
    graph: Graph | None
    verdict: str | None
    primes_used: tuple
    transcript: tuple


def solve_game(endpoint, config=None):
    """Reference strategy: powers-of-two labels, the cheapest primes that
    decode.

    With the default config the solver asks first for q = 3, reads the
    vertex count n from that reply and then asks for the smallest prime
    q2 > max(3, 2 gamma(n)), gamma(n) the largest product of part sizes
    over the partitions of n.  The labels are powers of two, so each label
    sum belongs to one edge subset, and by the all-minors matrix-tree
    theorem each coefficient of P is, up to sign, the product of the tree
    sizes of one spanning forest: |c| <= gamma(n) < q2/2, which balanced
    base-q2 digits decode.  When that pair fails to cluster or decode, or
    the reply at 3 is an error, the solver walks 101, 1009, 10007, skipping
    primes already asked.  An explicit SolverConfig.primes is asked
    exactly, in order.

    Each new spectrum is clustered with the previous one, and the pair is
    decoded at its larger prime (a window a few levels deep suffices; the
    blind bound of total-weight+1 levels is never requested); the Y = 1
    level verifies the decode.  The solver then reconstructs and submits.
    A prime whose spectrum the server cannot compute (a "precision" error
    reply) is skipped like one that fails to cluster or decode.  Gives up
    without submitting when the primes are exhausted.
    """
    config = config or SolverConfig()
    transcript = []

    def request(msg):
        transcript.append(("send", encode_message(msg)))
        reply = endpoint.request(msg)
        transcript.append(("recv", encode_message(reply)))
        if reply.get("type") == "error":
            error = (PrecisionError if reply.get("code") == "precision"
                     else ValidationError)
            raise error(f"server error: {reply.get('message')}")
        return reply

    welcome = request({"type": "hello"})
    if welcome.get("type") != "welcome":
        raise ValidationError(f"expected welcome, got {welcome}")
    # 1, 2, 4, ...: as many labels as reconstruction accepts, so a larger
    # hidden graph is refused by the server before any spectrum is computed
    labels_full = [1 << i for i in range(EDGE_CAP)]
    ack = request({"type": "choose_delta", "labels": labels_full})
    if ack.get("type") != "delta_ack":
        raise ValidationError(f"expected delta_ack, got {ack}")
    m = ack["edge_count"]
    labels = labels_full[:m]
    degree_bound = sum(labels)

    derive = config.primes is None
    queue = [3] if derive else list(config.primes)
    samples = []
    primes_used = []
    polynomial = None
    while queue:
        q = queue.pop(0)
        try:
            reply = request({"type": "choose_prime", "q": q})
        except PrecisionError:
            reply = None
        if reply is not None:
            if reply.get("type") != "spectrum":
                raise ValidationError(f"expected spectrum, got {reply}")
            primes_used.append(q)
            samples.append(SpectrumSample(
                reply["q"], reply["r_min"], reply["r_max"],
                reply["precision_bits"],
                tuple(parse_exact_decimal(s) for s in reply["values"])))
        if derive:  # after q = 3: the decode prime for n, then the fixed list
            derive = False
            pair = [] if reply is None else [_decode_prime(samples[0].n_per_level)]
            queue = pair + [p for p in _FALLBACK_PRIMES if p not in pair]
        if reply is None or len(samples) < 2:
            continue
        try:
            # at the larger prime: q = 2 gives no digit-decode node in [0, 1]
            assignment = max(cluster_and_assign(samples[-2:]), key=lambda a: a.q)
            recovered = recover_spectral_poly(assignment, assignment.q,
                                              degree_bound)
            polynomial = recovered.polynomial
            break
        except (AmbiguousClusteringError, PrecisionError):
            continue
    if polynomial is None:
        return SolveResult(False, None, None, tuple(primes_used),
                           tuple(transcript))
    graph = reconstruct_from_polynomial(polynomial)
    verdict = request({
        "type": "submit",
        "n": graph.n,
        "edges": [list(e) for e in graph.sorted_edges()],
    })
    return SolveResult(verdict.get("result") == "win", graph,
                       verdict.get("result"), tuple(primes_used),
                       tuple(transcript))

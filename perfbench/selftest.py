"""Shows that every correctness check rejects a corrupted output.

    python3 perfbench/selftest.py

For each workload one operation is run on a small fixed input; its output
must pass every check.  Then, one at a time, each check is handed a copy
of that output corrupted in the one way the check looks for, and must
reject it with its own message.  Exits 0 when every check both accepts the
true output and rejects each corruption, 1 otherwise.
"""
from __future__ import annotations

import copy
import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from graphspectra import catalog  # noqa: E402
from graphspectra.graphs import Graph  # noqa: E402

from checks import CHECKS, CheckFailed  # noqa: E402
from run import no_span  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _replace_mono(monos, old, new):
    return tuple(sorted((new if m == old else m for m in monos),
                        key=lambda t: (t[1], t[2])))


def _first(monos, j):
    return next(m for m in monos if m[1] == j)


def _wrong_graph(d):
    """Move the first edge so that its second endpoint loses a neighbour."""
    n, edges = d["graph"]
    edges = sorted(edges)
    _, v = edges[0]
    free = next((a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
                if (a, b) not in edges and v not in (a, b))
    d["graph"] = (n, tuple(sorted(edges[1:] + [free])))


def _game_value(res):
    """Raw output corrupted: the top value of the first spectrum reply, + 1."""
    transcript = list(res.transcript)
    for i, (direction, text) in enumerate(transcript):
        msg = json.loads(text)
        if direction == "recv" and msg.get("type") == "spectrum":
            msg["values"][-1] = str(Fraction(msg["values"][-1]) + 1)
            transcript[i] = (direction, json.dumps(msg))
            break
    return dataclasses.replace(res, transcript=tuple(transcript))


def _level_swap(out):
    """Raw output corrupted the way the clustering fault does: two levels
    exchange one value each."""
    samples, texts, back, assignments, recovered = out
    a = assignments[0]
    levels = dict(a.levels)
    lo, hi = min(levels), max(levels)
    x, y = list(levels[lo]), list(levels[hi])
    x[-1], y[-1] = y[-1], x[-1]
    levels[lo], levels[hi] = tuple(sorted(x)), tuple(sorted(y))
    swapped = dataclasses.replace(a, levels=levels)
    return samples, texts, back, [swapped] + list(assignments[1:]), recovered


def _sample_value(out):
    """Raw output corrupted: the top simulated value doubled, in the sample
    and in its text read back alike."""
    samples, texts, back, assignments, recovered = out

    def doubled(s):
        values = list(s.values)
        values[-1] = values[-1] * 2
        return dataclasses.replace(s, values=tuple(values))

    return ([doubled(samples[0])] + list(samples[1:]), texts,
            [doubled(back[0])] + list(back[1:]), assignments, recovered)


# Each *_cases() returns [(workload, input, cases)]; a case is (name,
# corruption of the raw output or None, corruption of the digest or None,
# text the rejecting check's message must contain).


def game_cases():
    def edit(key, value):
        return lambda d: d.__setitem__(key, value)

    def reply(key, value):
        return lambda d: d["replies"][0].__setitem__(key, value)

    return [("game", (catalog.cycle_graph(5), 3), [
        ("lost game", None, edit("verdict", "lose"), "game lost"),
        ("wrong graph", None, _wrong_graph, "not isomorphic"),
        ("prime count", None, edit("primes", 4), "primes used"),
        ("reply count", None, lambda d: d["replies"].pop(), "one spectrum reply"),
        ("value count", None, reply("count", 11), "wrong value count"),
        ("zero count", None, reply("zeros", 1), "one zero per level"),
        ("value order", None, reply("ascending", False), "not ascending"),
        ("value changed", _game_value, None, "sum of level traces"),
    ])]


def curve_cases():
    g = Graph.of(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 5)])
    dense = catalog.with_labels(g, [3, 16, 7, 1, 12, 9])

    def monos(fn):
        def corrupt(d):
            d["monos"] = fn(d["monos"], d["n"])
        return corrupt

    def leading(m, n):
        return _replace_mono(m, (1, n, 0), (2, n, 0))

    def constant(m, n):
        return tuple(sorted(m + ((5, 0, 3),), key=lambda t: (t[1], t[2])))

    def edge_exponent(m, n):
        c, j, k = _first(m, n - 1)
        return _replace_mono(m, (c, j, k), (c, j, k + 100))

    def at_one(m, n):
        c, j, k = _first(m, 1)
        return _replace_mono(m, (c, j, k), (c + 1, j, k))

    def forest(m, n):
        c, j, k = _first(m, 1)
        return _replace_mono(m, (c, j, k), (c, j, k + 100))

    def text(d):
        d["text"] = d["text"].replace("\n-2 ", "\n-3 ", 1)

    pow2 = catalog.with_labels(catalog.cycle_graph(6), [1, 8, 2, 32, 4, 16],
                               check_subset_sums=True)
    return [("curve", (dense, False), [
        ("not monic", None, monos(leading), "not monic"),
        ("a_0 nonzero", None, monos(constant), "a_0 is not zero"),
        ("a_(n-1) exponent", None, monos(edge_exponent), "a_(n-1) differs"),
        ("P(X, 1)", None, monos(at_one), "P(X, 1) differs"),
        ("forest route", None, monos(forest), "forest route"),
        ("spoly text", None, text, "spoly text does not hold P"),
        ("text read back", None, lambda d: d.__setitem__("parsed_equal", False),
         "reading the spoly text back"),
    ]), ("curve", (pow2, True), [
        ("wrong reconstruction", None, _wrong_graph, "reconstructed graph"),
    ])]


def recovery_cases():
    dp = catalog.with_labels(catalog.path_graph(4), [1, 4, 2])

    def recovered(fn):
        def corrupt(d):
            monos, res = d["recovered"][1]
            d["recovered"][1] = fn(monos, res)
        return corrupt

    def other_poly(monos, res):
        c, j, k = monos[-2]
        return _replace_mono(monos, (c, j, k), (c, j, k + 1)), res

    return [("recovery", dp, [
        ("text read back", None, lambda d: d.__setitem__("parsed_equal", False),
         "does not read back"),
        ("window", None, lambda d: d["samples"][0].__setitem__("r_min", 0),
         "window is not"),
        ("sample count", None, lambda d: d["samples"][1].__setitem__("count", 3),
         "wrong value count"),
        ("sample value", _sample_value, None, "sum of level traces"),
        ("level missing", None, lambda d: d["levels"][0]["sums"].pop(0),
         "levels missing"),
        ("level count", None,
         lambda d: d["levels"][1]["sums"].__setitem__(
             0, (3, d["levels"][1]["sums"][0][1])), "values, expected"),
        ("levels swapped", _level_swap, None, "differs from the trace"),
        ("recovered P", None, recovered(other_poly), "differs from P"),
        ("snap residual", None, recovered(lambda m, r: (m, Fraction(1, 1000))),
         "residual"),
    ])]


def run_cases(workload, inp, cases):
    wl = WORKLOADS[workload]
    make_ref, check = CHECKS[workload]
    out = wl.run(inp, no_span)
    ref = make_ref(inp)
    good = wl.digest(inp, out)
    check(ref, good)
    failures = 0
    for name, raw, dig, message in cases:
        d = wl.digest(inp, raw(out)) if raw else copy.deepcopy(good)
        if dig:
            dig(d)
        try:
            check(ref, d)
        except CheckFailed as exc:
            ok = message in str(exc)
            verdict = "rejected" if ok else f"rejected by another check ({exc})"
        else:
            ok, verdict = False, "ACCEPTED"
        failures += not ok
        print(f"{workload:9s} {name:22s} {verdict}")
    return failures


def main():
    failures = 0
    for workload, inp, cases in game_cases() + curve_cases() + recovery_cases():
        failures += run_cases(workload, inp, cases)
    print("self-test", "passed" if not failures else f"FAILED ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

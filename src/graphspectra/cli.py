"""Command-line surface tying the package together.

Exit codes: 0 success, 2 validation error (including a recovery window
without a digit-decode node), 3 numeric-precision failure (including
ambiguous clustering, failed digit decodes and snapping residuals above
polynomials.SNAP_TOL).
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from operator import mul

from . import catalog
from .errors import PrecisionError, ValidationError, parse_fields, parse_ints
from .forests import buslov_polynomial, kelmans_coefficients
from .game import (GameConfig, GameServer, SocketEndpoint, SolverConfig,
                   solve_game)
from .graphs import (build_diffusion_pair, graph_from_text, graph_to_text,
                     sum_distinct_labels)
from .polynomials import (_as_is, evaluate_y, laplacian_charpoly,
                          spectral_polynomial, spectral_poly_from_text,
                          spectral_poly_to_text, tangent_cone)
from .realroots import sorted_values
from .reconstruct import reconstruct_labeled
from .spectra import (ClusterAssignment, cluster_and_assign, dyadic_fraction,
                      hex_dyadic, parse_hex_dyadic, prediction_error_ratio,
                      recover_spectral_poly, simulate_spectrum,
                      spectrum_from_text, spectrum_to_text)


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_window(spec):
    try:
        lo, hi = spec.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise ValidationError(f"window must look like '-3:1', got {spec!r}")


def _parse_fraction(spec, option):
    try:
        return Fraction(spec)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"{option} must be a rational number like "
                              f"'3' or '1/1000', got {spec!r}") from None


def _load_pair(path, labels_spec, seed):
    dp = graph_from_text(_read(path))
    if labels_spec is None:
        values = dp.label_values()
        if len(set(values)) == len(values):
            return build_diffusion_pair(
                dp.graph.n, [(u, v, a) for (u, v), a in dp.labels])
        return dp
    if labels_spec == "powers-of-two":
        labels = sum_distinct_labels(max(dp.graph.m, 1))[: dp.graph.m]
    elif labels_spec == "shuffled-powers-of-two":
        labels = sum_distinct_labels(max(dp.graph.m, 1))[: dp.graph.m]
        random.Random(seed).shuffle(labels)
    else:
        labels = parse_ints(labels_spec.split(","), labels_spec)
    return dp.relabeled(labels)


def _cmd_curve(args):
    dp = _load_pair(args.graph, args.labels, args.seed)
    P = spectral_polynomial(dp)
    _write(args.output, spectral_poly_to_text(P))
    return 0


def _cmd_tangent_cone(args):
    P = spectral_poly_from_text(_read(args.polynomial))
    cone = tangent_cone(P)
    lines = [f"tcone d={cone.degree}"]
    for j, k, c in sorted(cone.terms, key=lambda t: (-t[0], t[1])):
        lines.append(f"{c} {j} {k}")
    _write(args.output, "\n".join(lines) + "\n")
    return 0


def _cmd_evaluate(args):
    y = _parse_fraction(args.y, "--y")
    P = spectral_poly_from_text(_read(args.polynomial))
    p = evaluate_y(P, y)
    lines = [f"upoly y={y}"]
    for k in sorted(p.terms, reverse=True):
        lines.append(f"{p.terms[k]} {k}")
    _write(args.output, "\n".join(lines) + "\n")
    return 0


def _cmd_reconstruct(args):
    P = spectral_poly_from_text(_read(args.polynomial))
    _write(args.output, graph_to_text(reconstruct_labeled(P)))
    return 0


def _cmd_simulate(args):
    dp = _load_pair(args.graph, args.labels, args.seed)
    r_min, r_max = _parse_window(args.window)
    sample = simulate_spectrum(dp, args.q, r_min, r_max)
    _write(args.output, spectrum_to_text(sample))
    return 0


def _cmd_cluster(args):
    samples = [spectrum_from_text(_read(p)) for p in args.spectra]
    assignments = cluster_and_assign(samples)
    _write(args.output, "\n\n".join(map(_assignment_text, assignments)) + "\n")
    return 0


def _assignment_text(a):
    lines = [f"clusters q={a.q} prec={a.precision_bits}"]
    for r in sorted(a.levels, reverse=True):
        for v in a.levels[r]:
            lines.append(f"{r} {hex_dyadic(v)}")
    return "\n".join(lines)


def _read_assignment(text):
    """The assignment at the largest q among the blank-line-separated
    blocks of a clusters file, each of which must parse."""
    blocks, rows = [], []
    for ln in text.splitlines() + [""]:
        if ln.strip():
            rows.append(ln.strip())
        elif rows:
            blocks.append(_assignment_block(rows))
            rows = []
    if not blocks:
        raise ValidationError("missing clusters header")
    return max(blocks, key=lambda a: a.q)


def _assignment_block(rows):
    if not rows[0].startswith("clusters "):
        raise ValidationError("missing clusters header")
    fields = parse_fields(rows[0].split()[1:], rows[0])
    try:
        q, prec = parse_ints([fields["q"], fields["prec"]], rows[0])
    except KeyError as exc:
        raise ValidationError(f"clusters header missing field {exc}")
    levels = {}
    for ln in rows[1:]:
        parts = ln.split(None, 1)
        if len(parts) != 2:
            raise ValidationError(f"bad cluster line {ln!r}")
        [r] = parse_ints(parts[:1], ln)
        levels.setdefault(r, []).append(parse_hex_dyadic(parts[1]))
    levels = {r: tuple(sorted_values(vs)) for r, vs in levels.items()}
    return ClusterAssignment(q, prec, levels, float("inf"), 1.0)


def _cmd_recover(args):
    assignment = _read_assignment(_read(args.clusters))
    result = recover_spectral_poly(assignment, assignment.q, args.degree_bound)
    _write(args.output, spectral_poly_to_text(result.polynomial))
    print(f"snap residual: {float(result.snap_residual):.3g}", file=sys.stderr)
    return 0


def _cmd_separate(args):
    eps = _parse_fraction(args.epsilon, "--epsilon")
    g1 = graph_from_text(_read(args.graph1)).graph
    g2 = graph_from_text(_read(args.graph2)).graph
    full, half, ratio = prediction_error_ratio(g1, g2, eps)
    report = {
        "epsilon": str(eps),
        "common_edges": [list(e) for e in full.common_edges],
        "extra_edges": [[list(e) for e in s] for s in full.extra_edges],
        "hausdorff_distance": dyadic_fraction(full.hausdorff_distance),
        "separating_vector": ([dyadic_fraction(x) for x in full.separating_vector]
                              if full.separating_vector else None),
        "separating_seminorms": ([dyadic_fraction(s) for s in full.separating_seminorms]
                                 if full.separating_seminorms else None),
        "max_prediction_error": [dyadic_fraction(e)
                                 for e in full.max_prediction_error],
        # infinite when the halved step's predictions are exact
        "halved_epsilon_error_ratio": (None if ratio == float("inf")
                                       else dyadic_fraction(ratio)),
    }
    if args.format == "json":
        _write(args.output, json.dumps(report, indent=2) + "\n")
    else:
        from mpmath import mp
        lines = [
            f"epsilon            {eps}",
            f"common edges       {len(full.common_edges)}",
            f"extra edges        {full.extra_edges[0]} vs {full.extra_edges[1]}",
            f"hausdorff distance {mp.nstr(full.hausdorff_distance, 12)}",
            f"separating vector  {'found' if full.separating_vector else 'none'}",
            f"prediction errors  {mp.nstr(full.max_prediction_error[0], 6)} "
            f"{mp.nstr(full.max_prediction_error[1], 6)}",
            f"error ratio eps/(eps/2): {float(ratio):.4f}",
        ]
        _write(args.output, "\n".join(lines) + "\n")
    return 0


def _cmd_oracle_check(args):
    rng = random.Random(args.seed)
    checked = 0
    for n in range(1, args.max_n + 1):
        for g in catalog.connected_graphs(n):
            if g.m == 0:
                continue
            labels = rng.sample(range(1, 17), g.m) if g.m <= 16 else None
            if labels is None:
                continue
            dp = catalog.with_labels(g, labels)
            if buslov_polynomial(dp) != spectral_polynomial(dp):
                print(f"FAIL buslov: n={n} edges={sorted(g.edges)}")
                return 2
            checked += 1
        for g in catalog.all_graphs(n):
            cs = kelmans_coefficients(g)
            cp = laplacian_charpoly(g.n, [(e, 1) for e in g.edges], mul, _as_is)
            for k in range(1, g.n):
                if cp[g.n - k] != (-1) ** k * cs[k - 1]:
                    print(f"FAIL kelmans: n={n} edges={sorted(g.edges)}")
                    return 2
            checked += 1
    print(f"oracle-check: {checked} graphs verified up to n={args.max_n}")
    return 0


def _cmd_game_serve(args):
    dp = graph_from_text(_read(args.graph))
    r_min, r_max = _parse_window(args.window)
    config = GameConfig(r_min=r_min, r_max=r_max, seed=args.seed)
    with GameServer((args.host, args.port), dp.graph, config) as server:
        host, port = server.server_address
        print(f"serving hidden graph on {host}:{port}", file=sys.stderr)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
    return 0


def _cmd_game_solve(args):
    host, port = args.endpoint.rsplit(":", 1)
    endpoint = SocketEndpoint(host, int(port))
    try:
        result = solve_game(endpoint, SolverConfig())
    finally:
        endpoint.close()
    if result.graph is not None:
        _write(args.output, graph_to_text(result.graph))
    print(f"verdict: {result.verdict or 'gave up'} "
          f"(primes used: {list(result.primes_used)})", file=sys.stderr)
    return 0 if result.won else 3


def build_parser():
    top = argparse.ArgumentParser(
        prog="graphspectra",
        description="Spectral polynomials of edge-labeled graphs: build, "
                    "simulate, recover, reconstruct, and play the recovery game.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, output=True):
        if output:
            p.add_argument("-o", "--output", default="-",
                           help="output path ('-' for stdout)")

    p = sub.add_parser("curve", help="spectral polynomial of a graph file")
    p.add_argument("graph")
    p.add_argument("--labels", help="'powers-of-two', "
                   "'shuffled-powers-of-two', or comma list")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("tangent-cone", help="lowest homogeneous part")
    p.add_argument("polynomial")
    common(p)
    p.set_defaults(func=_cmd_tangent_cone)

    p = sub.add_parser("evaluate", help="substitute a rational for Y")
    p.add_argument("polynomial")
    p.add_argument("--y", required=True)
    common(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("reconstruct", help="graph from a polynomial file")
    p.add_argument("polynomial")
    common(p)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("simulate", help="level spectra over a window")
    p.add_argument("graph")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--window", default="0:1", help="'rmin:rmax'")
    p.add_argument("--labels")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("cluster", help="split spectra into level multisets")
    p.add_argument("spectra", nargs="+", help="two or more spectrum files")
    common(p)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("recover", help="polynomial from a cluster file")
    p.add_argument("clusters", help="a file written by cluster; recovery "
                   "uses its block at the largest q")
    p.add_argument("--degree-bound", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("separate", help="perturbation experiment on two graphs")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("--epsilon", default="1/1000")
    p.add_argument("--format", choices=("text", "json"), default="text")
    common(p)
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser("oracle-check", help="forest/quotient coefficient suites")
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("game-serve", help="serve a hidden graph")
    p.add_argument("graph")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--window", default="0:1")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_game_serve)

    p = sub.add_parser("game-solve", help="play against host:port")
    p.add_argument("endpoint")
    common(p)
    p.set_defaults(func=_cmd_game_solve)

    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PrecisionError as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

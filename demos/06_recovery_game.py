"""The recovery game, end to end.

A server hides a connected graph.  The solver commits to edge labels once
(an oversized powers-of-two list; the server reveals only the edge count),
asks for the level-spectrum window at q = 3, reads the vertex count n from
that reply, and asks next for the smallest prime above twice the largest
forest weight of n (19 for the six vertices here): no coefficient of the
polynomial is larger, so that prime's digits decode it.  It recovers the
polynomial, reconstructs, and submits.  Played here over the in-process
transport and then over a real TCP socket.
"""
import json

from graphspectra.catalog import random_connected_graph
from graphspectra.game import (GameConfig, GameSession, LoopbackEndpoint,
                               SocketEndpoint, serve_game, solve_game)

import random

hidden = random_connected_graph(6, random.Random(2))
print("hidden graph (server-side secret):", sorted(hidden.edges))

session = GameSession(hidden, GameConfig(seed=11))
result = solve_game(LoopbackEndpoint(session))
print("\nloopback game:", "WON" if result.won else "lost",
      "using primes", list(result.primes_used))
print("submitted:", sorted(result.graph.edges))

print("\ntranscript (spectra elided):")
for direction, line in result.transcript:
    msg = json.loads(line)
    if msg.get("type") == "spectrum":
        msg["values"] = f"<{len(msg['values'])} exact fractions>"
    print(f"  {direction:4s} {json.dumps(msg)[:100]}")

server, (host, port) = serve_game(hidden, GameConfig(seed=11))
try:
    endpoint = SocketEndpoint(host, port)
    try:
        result = solve_game(endpoint)
    finally:
        endpoint.close()
    print(f"\nsocket game against {host}:{port}:",
          "WON" if result.won else "lost")
finally:
    server.shutdown()
    server.server_close()

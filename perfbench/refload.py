"""A fixed reference load that measures how fast the host is right now.

Shared hosts change speed by a fifth or more over minutes (other
tenants on the same cores and caches), which moves every host-time
figure of a run together. The benchmark times this load between the
runs of a workload and reports throughput per reference-load time as
well as per host second, and set-up time scaled by the same factor: a
change to ``repro`` cannot change this load, but a slow or fast spell of
the host changes both alike.

The load mimics where the simulator's time goes: a live heap of slotted
objects with dict payloads, larger than the processor caches, and
string-keyed dict probes that chase pointers through it. A smaller heap
or a call-heavy loop tracked the simulator's speed less closely. It
depends on nothing in ``repro``.
"""

from __future__ import annotations

from time import perf_counter

NODES = 100_000
PROBES = 250_000
#: Host seconds the load takes on the 2-vCPU Intel Xeon VM the benchmark
#: was tuned on; host times are reported scaled to a host this fast.
NOMINAL_S = 0.6


class _Node:
    __slots__ = ("key", "value", "next", "payload")

    def __init__(self, key: str, value: int, next_node, payload: dict) -> None:
        self.key = key
        self.value = value
        self.next = next_node
        self.payload = payload


def run_reference() -> int:
    """Run the load once; returns a checksum of its result."""
    table = {}
    node = None
    for i in range(NODES):
        node = _Node(f"k{i}", i * 7 % 1000, node, {"a": i, "b": str(i)})
        table[node.key] = node
    total = 0
    x = 12345
    for _ in range(PROBES):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        node = table[f"k{x % NODES}"]
        total += node.value + node.payload["a"]
        if node.next is not None:
            total += node.next.value
    return total


def time_reference() -> float:
    """Host seconds one run of the reference load takes now."""
    began = perf_counter()
    run_reference()
    return perf_counter() - began

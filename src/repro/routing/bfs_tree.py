"""Breadth-first spanning tree of the switch graph (Autonet step 1).

Autonet's distributed algorithm guarantees all switches eventually agree on a
unique spanning tree.  We reproduce the agreed-upon result directly: the root
is the lowest-numbered switch and ties during the BFS are broken by switch
id, which makes the tree a pure function of the topology.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.topology.graph import NetworkTopology


@dataclass(frozen=True)
class BfsTree:
    """The BFS spanning tree: per-switch level and tree parent.

    Attributes:
        root: the root switch (lowest id, per our deterministic election).
        level: ``level[s]`` is the BFS depth of switch ``s`` (root = 0).
        parent: ``parent[s]`` is the tree parent of ``s`` (root's is -1).
        parent_link: the link id used to reach the parent (root's is -1).
    """

    root: int
    level: tuple[int, ...]
    parent: tuple[int, ...]
    parent_link: tuple[int, ...]

    def depth(self) -> int:
        """Height of the tree (max level)."""
        return max(self.level)

    def children(self, switch: int) -> list[int]:
        """Tree children of ``switch`` (ascending)."""
        return [s for s, p in enumerate(self.parent) if p == switch]


def build_bfs_tree(topo: NetworkTopology, root: int = 0) -> BfsTree:
    """Compute the unique BFS spanning tree rooted at ``root``.

    Neighbours are visited in (switch id, link id) order so the result is a
    deterministic function of the topology, mirroring Autonet's property that
    "all nodes will eventually agree on a unique spanning tree".

    Raises:
        ValueError: if the switch graph is disconnected.
    """
    if not (0 <= root < topo.num_switches):
        raise ValueError(f"root {root} out of range")
    level = [-1] * topo.num_switches
    parent = [-1] * topo.num_switches
    parent_link = [-1] * topo.num_switches
    outgoing: list[list[tuple[int, int]]] = [
        [] for _ in range(topo.num_switches)
    ]
    for lk in topo.links:
        a, b = lk.a.switch, lk.b.switch
        outgoing[a].append((b, lk.link_id))
        outgoing[b].append((a, lk.link_id))
    level[root] = 0
    q: deque[int] = deque([root])
    while q:
        s = q.popleft()
        # Deterministic order: neighbours ascending, lowest link id first
        # (link ids are unique, so the sort never compares further).
        for nb, link_id in sorted(outgoing[s]):
            if level[nb] == -1:
                level[nb] = level[s] + 1
                parent[nb] = s
                parent_link[nb] = link_id
                q.append(nb)
    if any(lv == -1 for lv in level):
        raise ValueError("switch graph is disconnected")
    return BfsTree(
        root=root,
        level=tuple(level),
        parent=tuple(parent),
        parent_link=tuple(parent_link),
    )

"""Static description of an irregular switch-based network.

A :class:`NetworkTopology` is a pure data object: switches with ports, hosts
attached to ports, and bidirectional switch-switch links.  Routing and
simulation layers are built on top of it and never mutate it.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class PortRef:
    """A (switch, port) coordinate on the interconnect."""

    switch: int
    port: int


@dataclass(frozen=True)
class SwitchLink:
    """A bidirectional physical link between two switch ports.

    ``link_id`` is unique; multiple links may join the same switch pair
    (the paper explicitly allows multi-links).
    """

    link_id: int
    a: PortRef
    b: PortRef

    def other_end(self, switch: int) -> PortRef:
        """Return the endpoint of this link that is *not* on ``switch``.

        For a (degenerate, disallowed) self-link this would be ambiguous, so
        construction forbids self-links.
        """
        if self.a.switch == switch:
            return self.b
        if self.b.switch == switch:
            return self.a
        raise ValueError(f"switch {switch} is not an endpoint of link {self.link_id}")

    def end_on(self, switch: int) -> PortRef:
        """Return the endpoint of this link that *is* on ``switch``."""
        if self.a.switch == switch:
            return self.a
        if self.b.switch == switch:
            return self.b
        raise ValueError(f"switch {switch} is not an endpoint of link {self.link_id}")


@dataclass
class NetworkTopology:
    """An irregular network: switches, host attachments, switch links.

    Attributes:
        num_switches: switches are numbered ``0..num_switches-1``.
        ports_per_switch: every switch has this many ports, ``0..P-1``.
        node_attachment: ``node_attachment[n]`` is the :class:`PortRef` that
            host ``n`` hangs off; hosts are numbered ``0..num_nodes-1``.
        links: all switch-switch links.
    """

    num_switches: int
    ports_per_switch: int
    node_attachment: list[PortRef]
    links: list[SwitchLink]
    _adj: dict[int, list[SwitchLink]] = field(default_factory=dict, repr=False)
    _nodes_on: dict[int, list[int]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        # One ordered pass: per link the self-link check, then each end's
        # range and duplicate checks; then each node's.  Fault drawing
        # rebuilds whole topologies per candidate link, so used ports are
        # keyed as ints (switch * P + port, unique once in range) rather
        # than hashed as PortRefs, and _check_port runs only to raise.
        n, ports = self.num_switches, self.ports_per_switch
        adj: dict[int, list[SwitchLink]] = {s: [] for s in range(n)}
        nodes_on: dict[int, list[int]] = {s: [] for s in range(n)}
        used: set[int] = set()
        for link in self.links:
            a, b = link.a, link.b
            if a.switch == b.switch:
                raise ValueError(f"self-link on switch {a.switch}")
            for end in (a, b):
                s, p = end.switch, end.port
                if not (0 <= s < n and 0 <= p < ports):
                    self._check_port(end)
                key = s * ports + p
                if key in used:
                    raise ValueError(f"port {end} used twice")
                used.add(key)
            adj[a.switch].append(link)
            adj[b.switch].append(link)
        for node, attach in enumerate(self.node_attachment):
            s, p = attach.switch, attach.port
            if not (0 <= s < n and 0 <= p < ports):
                self._check_port(attach)
            key = s * ports + p
            if key in used:
                raise ValueError(f"port {attach} used twice (node {node})")
            used.add(key)
            nodes_on[s].append(node)
        self._adj = adj
        self._nodes_on = nodes_on

    def _check_port(self, ref: PortRef) -> None:
        if not (0 <= ref.switch < self.num_switches):
            raise ValueError(f"switch {ref.switch} out of range")
        if not (0 <= ref.port < self.ports_per_switch):
            raise ValueError(f"port {ref.port} out of range on switch {ref.switch}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of hosts attached to the network."""
        return len(self.node_attachment)

    def switch_of_node(self, node: int) -> int:
        """The switch a host hangs off."""
        return self.node_attachment[node].switch

    def nodes_on_switch(self, switch: int) -> list[int]:
        """Hosts directly attached to ``switch`` (ascending node id)."""
        return list(self._nodes_on[switch])

    def links_of(self, switch: int) -> list[SwitchLink]:
        """All switch-switch links with one end on ``switch``."""
        return list(self._adj[switch])

    def neighbors(self, switch: int) -> list[int]:
        """Neighbouring switches, ascending and de-duplicated."""
        return sorted({lk.other_end(switch).switch for lk in self._adj[switch]})

    def degree(self, switch: int) -> int:
        """Number of switch-switch links on ``switch`` (multi-links count)."""
        return len(self._adj[switch])

    def free_ports(self, switch: int) -> int:
        """Ports of ``switch`` not wired to a host or another switch."""
        return self.ports_per_switch - self.degree(switch) - len(self._nodes_on[switch])

    def is_connected(self) -> bool:
        """True when every switch is reachable from switch 0."""
        if self.num_switches == 0:
            return True
        # Walks link ends directly: neighbors() would sort a fresh set per
        # switch, and remove_link runs this once per candidate link.
        adj = self._adj
        seen = {0}
        stack = [0]
        while stack:
            s = stack.pop()
            for lk in adj[s]:
                nb = lk.b.switch if lk.a.switch == s else lk.a.switch
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == self.num_switches

    def to_networkx(self):
        """Export the switch graph as a ``networkx.MultiGraph``.

        Switch ``s`` becomes node ``("sw", s)`` and host ``n`` becomes
        ``("host", n)``; link ids are kept as edge keys.
        """
        import networkx as nx

        g = nx.MultiGraph()
        for s in range(self.num_switches):
            g.add_node(("sw", s))
        for lk in self.links:
            g.add_edge(("sw", lk.a.switch), ("sw", lk.b.switch), key=lk.link_id)
        for n, attach in enumerate(self.node_attachment):
            g.add_node(("host", n))
            g.add_edge(("host", n), ("sw", attach.switch), key=f"host-{n}")
        return g

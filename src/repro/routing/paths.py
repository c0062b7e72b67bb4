"""Explicit legal-path construction and validation helpers.

The simulator mostly routes hop by hop through :class:`UpDownRouting`, but
the path-based multicast scheme needs whole paths materialised up front, and
the test-suite wants to enumerate and validate routes.  Those utilities live
here.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.routing.updown import Phase, UpDownRouting
from repro.topology.graph import SwitchLink


def shortest_path_links(
    rt: UpDownRouting, src_switch: int, dst_switch: int
) -> list[SwitchLink]:
    """One minimal legal path as a link sequence (deterministic choice).

    Ties between equally short continuations break toward the lowest
    (neighbour switch id, link id), making the result reproducible.
    """
    path: list[SwitchLink] = []
    here, phase = src_switch, Phase.UP
    while here != dst_switch:
        hops = rt.next_hops(here, phase, dst_switch)
        if not hops:
            raise AssertionError("routing table returned no hop before arrival")
        best = min(hops, key=lambda h: (h.to_switch, h.link.link_id))
        path.append(best.link)
        here, phase = best.to_switch, best.next_phase
    return path


def minimal_paths(
    rt: UpDownRouting, src_switch: int, dst_switch: int, cap: int
) -> list[list[SwitchLink]]:
    """The first ``cap`` minimal legal paths, in depth-first ``next_hops``
    order; the walk stops as soon as it has ``cap`` of them."""
    results: list[list[SwitchLink]] = []
    walk_minimal_paths(
        rt, src_switch, dst_switch, cap,
        lambda links, _score: results.append(list(links)),
    )
    return results


def walk_minimal_paths(
    rt: UpDownRouting,
    src_switch: int,
    dst_switch: int,
    cap: int,
    visit: Callable[[list[SwitchLink], int], object],
    weight: Sequence[int] | None = None,
) -> None:
    """Visit the first ``cap`` minimal legal paths, in depth-first
    ``next_hops`` order.

    ``visit(links, score)`` gets each path as the walker's own link list,
    which it must copy to keep, and the sum of ``weight[s]`` over the
    switches ``s`` the path crosses, the start included (0 without a
    weight).  A minimal path never crosses a switch twice, so the score
    counts each switch once: a switch's earlier state is UP or the same as
    its later one, so it has every move the later one has, and cutting the
    loop between them would leave a shorter legal path.
    """
    if weight is None:
        weight = [0] * rt.topo.num_switches
    _walk(rt, dst_switch, src_switch, Phase.UP, [], weight[src_switch],
          weight, visit, cap)


def _walk(
    rt: UpDownRouting,
    dst_switch: int,
    here: int,
    phase: Phase,
    acc: list[SwitchLink],
    score: int,
    weight: Sequence[int],
    visit: Callable[[list[SwitchLink], int], object],
    budget: int,
) -> int:
    """Depth-first step of :func:`walk_minimal_paths`: returns the paths
    still to visit, at most 0 once the walk must stop.

    A module-level function rather than a recursive closure, which would be
    a reference cycle holding the routing tables until the cycle collector
    runs.
    """
    if here == dst_switch:
        visit(acc, score)
        return budget - 1
    for hop in rt.next_hops(here, phase, dst_switch):
        acc.append(hop.link)
        t = hop.to_switch
        budget = _walk(rt, dst_switch, t, hop.next_phase, acc,
                       score + weight[t], weight, visit, budget)
        acc.pop()
        if budget <= 0:
            break
    return budget


def all_minimal_paths(
    rt: UpDownRouting, src_switch: int, dst_switch: int, limit: int = 1000
) -> list[list[SwitchLink]]:
    """Enumerate every minimal legal path (bounded by ``limit``).

    Raises ``ValueError`` when there are more than ``limit``, so a caller
    never silently works with a partial enumeration.
    """
    results = minimal_paths(rt, src_switch, dst_switch, limit + 1)
    if len(results) > limit:
        raise ValueError("minimal path enumeration exceeded limit")
    return results


def updown_decomposition(
    rt: UpDownRouting, src_switch: int, links: list[SwitchLink]
) -> tuple[int, int]:
    """Split a path into its up* prefix and down* suffix lengths.

    Returns ``(num_up, num_down)`` with ``num_up + num_down == len(links)``.
    This is the constructive form of the paper's route legality condition:
    a route is legal iff such a decomposition exists.

    Raises:
        ValueError: if the sequence is not contiguous (a link does not leave
            the switch the previous one entered) or takes an up traversal
            after a down traversal.
    """
    here = src_switch
    num_up = num_down = 0
    for i, lk in enumerate(links):
        lk.end_on(here)  # raises ValueError on a non-contiguous sequence
        if rt.is_up_traversal(lk, here):
            if num_down:
                raise ValueError(
                    f"up traversal at position {i} (link {lk.link_id}) "
                    "after the path already went down"
                )
            num_up += 1
        else:
            num_down += 1
        here = lk.other_end(here).switch
    return num_up, num_down


def is_legal_path(
    rt: UpDownRouting, src_switch: int, links: list[SwitchLink]
) -> bool:
    """Validate a link sequence against the up*/down* rule.

    Checks contiguity (each link leaves the switch the previous one entered)
    and the no-up-after-down rule.
    """
    try:
        updown_decomposition(rt, src_switch, links)
    except ValueError:
        return False
    return True


def path_switches(src_switch: int, links: list[SwitchLink]) -> list[int]:
    """The switch sequence visited by a path, including the start."""
    seq = [src_switch]
    here = src_switch
    for lk in links:
        here = lk.other_end(here).switch
        seq.append(here)
    return seq

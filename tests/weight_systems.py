"""Weight-system helpers that only the tests use."""

from kmoduli.torusgit import WeightSystem


def column(ws: WeightSystem, i: int) -> tuple[int, ...]:
    """Weight of coordinate i (1-based)."""
    if not 1 <= i <= ws.n_coords:
        raise ValueError(f"coordinate index {i} out of range 1..{ws.n_coords}")
    return ws.columns[i - 1]


def negated(ws: WeightSystem) -> WeightSystem:
    return WeightSystem(
        ws.rank,
        ws.n_coords,
        tuple(tuple(-x for x in row) for row in ws.matrix),
    )

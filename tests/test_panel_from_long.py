import re

import numpy as np
import pytest

from cdmpanel import ValidationError, from_long


def placement_loop(entity_values, year_values):
    """Reference: entities in order of first appearance and each row's grid
    position, placed row by row; ValidationError at the first repeated key."""
    entities, ent_pos, seen, rows = [], {}, set(), []
    y_min = min(year_values)
    n_periods = max(year_values) - y_min + 1
    for e, y in zip(entity_values, year_values):
        if (e, y) in seen:
            raise ValidationError(f"duplicate (entity, year) key ({e}, {y})")
        seen.add((e, y))
        if e not in ent_pos:
            ent_pos[e] = len(entities)
            entities.append(e)
        rows.append(ent_pos[e] * n_periods + (y - y_min))
    return entities, rows


@pytest.mark.parametrize("seed", range(40))
def test_placement_matches_row_loop(seed):
    # exact equality: the vectorised placement does no arithmetic on the values
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 25))
    ents = [f"E{int(v)}" for v in rng.integers(0, 5, size=n)]
    yrs = [int(v) for v in rng.integers(2000, 2006, size=n)]
    vals = rng.normal(size=n)
    try:
        entities, rows = placement_loop(ents, yrs)
    except ValidationError as exc:
        with pytest.raises(ValidationError, match=f"^{re.escape(str(exc))}$"):
            from_long(ents, yrs, {"v": vals})
        return
    ds = from_long(ents, yrs, {"v": vals})
    assert list(ds.entities) == entities
    expected = np.full(len(entities) * len(ds.periods), np.nan)
    expected[rows] = vals
    np.testing.assert_array_equal(ds.column("v"), expected)

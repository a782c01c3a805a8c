"""Verdicts that published theorems predict for a group algebra extension.

For a subgroup H of a finite group G and a field k of characteristic c,
the extension kH in kG is

* separable exactly when c does not divide the index [G:H] (c = 0 over Q);
* always split: the projection of kG onto kH that drops the elements of
  G outside H is a kH-bimodule retraction of the inclusion;
* of left depth two, and of right depth two, exactly when H is normal in
  G (Kadison-Kuelshammer, Comm. Algebra 2006; Boltje-Kuelshammer,
  J. Algebra 2010).
"""

from typing import Optional

from groups import is_normal


def predicted(cayley: list, subgroup, characteristic: int) -> dict:
    index = len(cayley) // len(subgroup)
    normal = is_normal(cayley, subgroup)
    return {"separable": characteristic == 0 or index % characteristic != 0,
            "split": True,
            "left_depth_two": normal,
            "right_depth_two": normal}


def group_pair(report: dict) -> Optional[tuple]:
    """(cayley, subgroup, characteristic) from a report's input echo, or
    None when the input is not a group algebra over a subgroup."""
    echo = report["input"]
    group = echo["algebra"].get("group")
    subgroup = echo["subalgebra"].get("subgroup")
    if group is None or subgroup is None:
        return None
    field = report["field"]
    return group["cayley"], subgroup, 0 if field == "Q" else field["Fp"]


def mismatches(report: dict) -> list:
    """The verdicts of a group algebra report that contradict the
    theorems; empty for any other report."""
    pair = group_pair(report)
    if pair is None:
        return []
    found = report["classification"]
    return [f"{key}: report says {found[key]}, theorem says {want}"
            for key, want in predicted(*pair).items() if found[key] != want]

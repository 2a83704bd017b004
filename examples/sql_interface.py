#!/usr/bin/env python3
"""The SQL frontend: the paper's query template, end to end.

Registers the synthetic taxi table and two polygon tables (neighborhoods
and coarser districts), then runs the paper's query shapes — counts,
filtered averages, and ε-bounded approximate queries via the WITHIN
extension, and a two-item SELECT sharing one pass — through the
parser/planner/engine stack.

Run:  python examples/sql_interface.py
"""

from repro import GPUDevice
from repro.data import generate_taxi, generate_voronoi_regions
from repro.data.regions import NYC_REGION_EXTENT
from repro.sql import QueryPlanner

QUERIES = [
    # The paper's canonical query: pickups per neighborhood.
    """SELECT COUNT(*) FROM taxi, hoods
       WHERE taxi.loc INSIDE hoods.geometry
       GROUP BY hoods.id""",
    # Filtered aggregation: average evening fare.
    """SELECT AVG(taxi.fare) FROM taxi, hoods
       WHERE taxi.loc INSIDE hoods.geometry
         AND hour >= 17 AND hour <= 19
       GROUP BY hoods.id""",
    # Approximate variant: explicit 20 m Hausdorff bound selects the
    # bounded raster join.
    """SELECT COUNT(*) FROM taxi, hoods
       WHERE taxi.loc INSIDE hoods.geometry WITHIN 20
       GROUP BY hoods.id""",
    # Different polygon table, different aggregate.
    """SELECT SUM(taxi.tip) FROM taxi, districts
       WHERE taxi.loc INSIDE districts.geometry
         AND passengers >= 2
       GROUP BY districts.id""",
    # Order statistics (extension aggregates).
    """SELECT MAX(taxi.distance) FROM taxi, districts
       WHERE taxi.loc INSIDE districts.geometry
       GROUP BY districts.id""",
]


def main() -> None:
    print("Building catalog: 500k taxi rows, 60 neighborhoods, "
          "12 districts...")
    planner = QueryPlanner(device=GPUDevice())
    planner.register_points("taxi", generate_taxi(500_000, seed=13))
    planner.register_regions(
        "hoods", generate_voronoi_regions(60, NYC_REGION_EXTENT, seed=13)
    )
    planner.register_regions(
        "districts", generate_voronoi_regions(12, NYC_REGION_EXTENT, seed=14)
    )

    for sql in QUERIES:
        flat = " ".join(sql.split())
        print(f"\nsql> {flat}")
        engine, *_ = planner.plan(sql)
        result = planner.execute(sql)
        values = result.values
        print(
            f"  engine={result.stats.engine}  "
            f"time={result.stats.query_s * 1000:.0f} ms  "
            f"groups={len(values)}"
        )
        preview = ", ".join(f"{v:.1f}" for v in values[:6])
        print(f"  values[:6] = [{preview}, ...]")

    # Several SELECT items share one pass: ``values`` is the first item,
    # and the planned MultiAggregate reads every item off the channels.
    sql = ("SELECT COUNT(*), AVG(taxi.fare) FROM taxi, hoods "
           "WHERE taxi.loc INSIDE hoods.geometry GROUP BY hoods.id")
    print(f"\nsql> {sql}")
    _, _, _, aggregate, _ = planner.plan(sql)
    result = planner.execute(sql)
    print(f"  engine={result.stats.engine}  "
          f"time={result.stats.query_s * 1000:.0f} ms  "
          f"channels={sorted(result.channels)}")
    for label, values in aggregate.finalize_all(result.channels).items():
        preview = ", ".join(f"{v:.1f}" for v in values[:6])
        print(f"  {label}[:6] = [{preview}, ...]")

    # Error handling: the planner validates before running anything.
    print("\nsql> SELECT COUNT(*) FROM taxi, nowhere WHERE "
          "taxi.loc INSIDE nowhere.geometry GROUP BY nowhere.id")
    try:
        planner.execute(
            "SELECT COUNT(*) FROM taxi, nowhere "
            "WHERE taxi.loc INSIDE nowhere.geometry GROUP BY nowhere.id"
        )
    except Exception as exc:
        print(f"  rejected: {exc}")


if __name__ == "__main__":
    main()

"""Table V — Area and power of the Cereal accelerator (40 nm synthesis).

The per-module values are published synthesis results reproduced as model
constants; the totals are recomputed from the per-unit numbers exactly as
the table does: 3.857 mm^2 and 1231.6 mW, 612.5x less area and 113.7x
less power than the host CPU.
"""

import pytest

from _golden import check
from repro.analysis import ReportTable
from repro.cereal.power import (
    area_power_table,
    cereal_area_mm2,
    cereal_average_power_watts,
)
from repro.common.config import HostCPUConfig


def test_table05_area_power(benchmark, results_dir):
    rows, total_area, total_power_mw = benchmark(area_power_table)

    table = ReportTable(
        "Table V: area and power of Cereal",
        ["Module", "Unit mm^2", "Unit mW", "Count", "Total mm^2", "Total mW"],
    )
    for name, unit_area, unit_power, count, area, power in rows:
        table.add_row(
            name, f"{unit_area:.3f}", f"{unit_power:.1f}", count,
            f"{area:.3f}", f"{power:.1f}",
        )
    table.add_row(
        "TOTAL", "", "", "", f"{total_area:.3f}", f"{total_power_mw:.1f}"
    )
    table.show()
    table.save(results_dir, "table05_area_power")

    check("table05", {
        name: {"unit_mm2": unit_area, "unit_mw": unit_power, "count": count,
               "total_mm2": area, "total_mw": power}
        for name, unit_area, unit_power, count, area, power in rows
    })
    assert total_area == pytest.approx(3.857, abs=0.01)
    assert total_power_mw == pytest.approx(1231.6, abs=1.0)


def test_table05_versus_host_cpu(benchmark, results_dir):
    def ratios():
        host = HostCPUConfig()
        area_ratio = host.die_area_mm2 / cereal_area_mm2()
        power_ratio = host.tdp_watts / cereal_average_power_watts()
        return area_ratio, power_ratio

    area_ratio, power_ratio = benchmark(ratios)
    assert area_ratio == pytest.approx(612.5, rel=0.01)  # paper Section VI-E
    assert power_ratio == pytest.approx(113.7, rel=0.01)


def test_table05_deserializer_dominates_area(benchmark, results_dir):
    def pools():
        rows, _, _ = area_power_table()
        by_name = {row[0]: row for row in rows}
        su = sum(
            by_name[n][4]
            for n in (
                "Header manager",
                "Reference array writer",
                "Object metadata manager",
                "Object handler",
            )
        )
        du = sum(
            by_name[n][4]
            for n in ("Layout manager", "Block manager", "Block reconstructor")
        )
        return su, du

    su_area, du_area = benchmark(pools)
    assert su_area == pytest.approx(0.464, abs=0.01)  # paper: 0.464 mm^2
    assert du_area == pytest.approx(2.248, abs=0.01)  # paper: 2.248 mm^2

"""The complete Figure 8 reproduction, as one paper-style table.

Regenerates all three panels in a single run and prints them side by
side with the paper's numbers — the headline artefact of this
reproduction, and the same table ``python -m repro fig8`` prints. (The
per-panel benches assert tighter bands; this one checks the cross-panel
ordering that defines the figure.)
"""

from conftest import once, print_table

from repro.workloads import FIG8_HEADER, FIG8_OFFERED, FIG8_TITLE, fig8_rows


def test_figure8_full_reproduction(benchmark):
    rows = once(benchmark, lambda: fig8_rows(2.5))
    print_table(FIG8_TITLE, FIG8_HEADER, rows)
    # The figure's defining shape: overheads strictly ordered
    # 8(a) < 8(b)-50% < 8(b)-100% < 8(c).
    overheads = [1.0 - smart / neo for _label, neo, smart, *_ in rows]
    assert overheads == sorted(overheads)
    assert overheads[0] < 0.12
    assert overheads[-1] > 0.6
    # NeoSCADA handles the full offered update load in every scenario.
    for _label, neo, *_ in rows[:3]:
        assert neo >= FIG8_OFFERED * 0.98

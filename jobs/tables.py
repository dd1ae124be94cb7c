"""Print one of the paper's evaluation tables (Section VI) at laptop scale.

Usage: python jobs/tables.py NAME   (or spark-submit; the algorithms under
comparison are executor-local, no cluster needed)

NAME is one of table4 table5 table6 table7 table8 fig9 fig11 fig14. The
first of table8/fig11/fig14 to run generates and caches the shared
200-task sample set (~minutes).
"""
import sys

from repro import datasets
from repro.experiments import fig11, fig14, table4, table6, table7, table8


def _runtime_grid(title: str, names: list[str], **kw) -> None:
    rows = table4.run(names, **kw)
    print(f"== {title} (runtime, seconds) ==")
    print(table4.format_table(rows, "time_s"))
    print(f"\n== {title} (distance computations — machine-independent) ==")
    print(table4.format_table(rows, "n_dist"))


def _show(title: str, table: str) -> None:
    print(f"== {title} ==")
    print(table)


TABLES = {
    "table4": lambda: _runtime_grid("Table IV", datasets.LOW_DIM),
    "table5": lambda: _runtime_grid("Table V", datasets.HIGH_DIM, base_n=8_000),
    "table6": lambda: _show("Table VI (estimated / actual memory ratio)",
                            table6.format_table(table6.run())),
    "table7": lambda: _show(
        "Table VII (runtime s / cumulative pruned vectors, by budget)",
        table7.format_table(table7.run(datasets.LOW_DIM))),
    "table8": lambda: _show(
        "Table VIII (runtime-prediction error by beta / features)",
        table8.format_table(table8.run())),
    "fig9": lambda: _show(
        "Fig. 9 analog (extra memory beyond the dataset, MB)",
        table4.format_table(table4.run(datasets.LOW_DIM, ks=(256,), max_iter=5),
                            "memory_mb")),
    "fig11": lambda: _show("Fig. 11 analog (runtime prediction: cost + accuracy)",
                           fig11.format_table(fig11.run())),
    "fig14": lambda: _show("Fig. 14 analog (total-runtime MSE vs observed iterations)",
                           fig14.format_table(fig14.run())),
}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in TABLES:
        print(f"usage: python jobs/tables.py {{{'|'.join(TABLES)}}}", file=sys.stderr)
        return 2
    TABLES[argv[0]]()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

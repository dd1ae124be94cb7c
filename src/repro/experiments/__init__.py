"""Per-table experiment harnesses (Section VI).

Each module reproduces one evaluation table at laptop scale and returns
rows ready for printing/markdown; Fig. 9 is the ``memory_mb`` column of
the ``table4`` grid. ``python jobs/tables.py NAME`` prints any of them.
"""

"""Inert name kept for the frozen ``bench/`` package (see below)."""


# bench/workloads/route.py:67 and bench/report.py:26 call this, unguarded
def resolve_kernel(name=None):
    if name not in (None, "auto", "python"):
        raise ValueError(f"unknown kernel {name!r}; choose from ['auto', 'python']")
    return "python"

"""Two-clock benchmark of the FlowGuard reproduction (see ``run.py``)."""

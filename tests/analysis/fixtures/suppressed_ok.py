"""A REPRO-LOCK violation waived by a suppression comment — analyzes clean."""

import threading


class ResourceManager:
    def __init__(self):
        self._lock = threading.RLock()
        self._contexts = {}
        self._claimed = set()

    def reset_before_sharing(self):
        # Sound: called from __init__-time setup before any thread sees us.
        self._contexts.clear()  # repro: allow[REPRO-LOCK] pre-publication setup

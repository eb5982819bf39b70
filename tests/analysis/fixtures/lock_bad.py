"""Seeded REPRO-LOCK violations: registry mutations outside the lock."""

import threading


class Engine:
    def __init__(self):
        self._submit_lock = threading.Lock()
        self._job_counter = 0

    def next_job_id(self):
        self._job_counter += 1  # BAD: outside _submit_lock
        return f"job-{self._job_counter}"


class ResourceManager:
    def __init__(self):
        self._lock = threading.RLock()
        self._claimed = set()
        self._contexts = {}
        self.task_compiles = {"hits": 0}

    def try_claim(self, key):
        if key in self._claimed:
            return False
        self._claimed.add(key)  # BAD: claim taken outside _lock
        return True

    def release(self, key):
        with self._lock:
            self._claimed.discard(key)

    def evict(self, key):
        self._contexts.pop(key, None)  # BAD: mutating method call, no lock

    def record_hit(self):
        self.task_compiles["hits"] += 1  # BAD: counter bump outside _lock

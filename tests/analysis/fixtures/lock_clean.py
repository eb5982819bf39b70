"""Clean twin of lock_bad: every registry mutation is under its lock."""

import threading


class Engine:
    def __init__(self):
        self._submit_lock = threading.Lock()
        self._job_counter = 0

    def next_job_id(self):
        with self._submit_lock:
            self._job_counter += 1
            return f"job-{self._job_counter}"


class ResourceManager:
    def __init__(self):
        self._lock = threading.RLock()
        self._claimed = set()
        self._contexts = {}
        self.task_compiles = {"hits": 0}

    def try_claim(self, key):
        with self._lock:
            if key in self._claimed:
                return False
            self._claimed.add(key)
            return True

    def release(self, key):
        with self._lock:
            self._claimed.discard(key)

    def evict(self, key):
        with self._lock:
            self._contexts.pop(key, None)

    def record_hit(self):
        with self._lock:
            self.task_compiles["hits"] += 1

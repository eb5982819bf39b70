"""Clean twin of lock_bad: every registry mutation is under its lock."""

import threading


class Engine:
    def __init__(self):
        self._cache_lock = threading.Lock()
        self._submit_lock = threading.Lock()
        self._cache = {}
        self._hits = 0
        self._misses = 0
        self._uncacheable = 0
        self._job_counter = 0

    def lookup(self, key):
        with self._cache_lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._hits += 1
                return cached
            self._misses += 1
            self._cache[key] = object()
            return self._cache[key]

    def next_job_id(self):
        with self._submit_lock:
            self._job_counter += 1
            return f"job-{self._job_counter}"


class ResourceManager:
    def __init__(self):
        self._lock = threading.RLock()
        self._contexts = {}
        self._task_sessions = {}

    def evict(self, key):
        with self._lock:
            self._contexts.pop(key, None)

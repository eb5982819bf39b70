"""Seeded REPRO-LOCK violations: registry mutations outside the lock."""

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
        cached = self._cache.get(key)
        if cached is not None:
            self._hits += 1  # BAD: counter bump outside _cache_lock
            return cached
        with self._cache_lock:
            self._misses += 1
        self._cache[key] = object()  # BAD: cache write outside _cache_lock
        return self._cache[key]

    def next_job_id(self):
        self._job_counter += 1  # BAD: outside _submit_lock
        return f"job-{self._job_counter}"


class ResourceManager:
    def __init__(self):
        self._lock = threading.RLock()
        self._contexts = {}
        self._task_sessions = {}

    def evict(self, key):
        self._contexts.pop(key, None)  # BAD: mutating method call, no lock

"""Frozen seed implementations used by the equivalence and perf suites.

``legacy_cores`` holds the pre-optimization scheduler classes;
``legacy_engine`` holds the pre-optimization event loop;
``legacy_hierarchy`` holds the pre-rewrite class hierarchy;
``legacy_tracer`` holds the list-of-records tracer the columnar
``Tracer`` replaced; ``legacy_fairness`` holds the epoch-pair scan of
H(f, m) that the replay through ``RunningGap`` replaced. All are
deliberately unmaintained snapshots — see their module docstrings.
"""

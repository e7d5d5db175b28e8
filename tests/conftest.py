"""Test-suite settings.

Generated-input (``hypothesis``) tests run derandomized, so every run draws
the same examples, and without a per-example deadline, so a slow machine
cannot fail them on timing alone.  Tests that need fewer examples than the
default set ``max_examples`` on their own ``@settings``.
"""

from hypothesis import settings

settings.register_profile("slagcy", derandomize=True, deadline=None)
settings.load_profile("slagcy")

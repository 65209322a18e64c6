"""Suite-wide hypothesis settings.

Tier-1 is a gate, so a property test may not pass or fail by luck:
``derandomize`` draws the same examples on every run, ``deadline=None``
keeps a slow shared host from failing a correct example on wall time, and
``print_blob`` prints the reproduction blob with any failure.
"""

from hypothesis import settings

settings.register_profile("tier1", deadline=None, derandomize=True,
                          print_blob=True)
settings.load_profile("tier1")

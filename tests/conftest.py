from hypothesis import settings

# Fixed example sequence, and no per-example deadline: property tests
# give the same verdict on every run and on a slow, busy host.
settings.register_profile("qetsim", derandomize=True, deadline=None)
settings.load_profile("qetsim")

from hypothesis import settings

# one profile for every property test: no deadline (timings vary on a shared
# host), a fixed sequence of examples on every run, and no example database
# written into the checkout
settings.register_profile("tier1", deadline=None, derandomize=True, database=None)
settings.load_profile("tier1")

import atexit
import os
import shutil
import tempfile

from hypothesis import settings

# Hypothesis writes its storage (a constants cache even without an example
# database) under the working directory unless told otherwise: keep it out
# of the checkout, in a directory removed when the run ends
_storage = tempfile.mkdtemp(prefix="hypothesis-")
atexit.register(shutil.rmtree, _storage, ignore_errors=True)
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _storage)

# one profile for every property test: no deadline (timings vary on a shared
# host), a fixed sequence of examples on every run, and no example database
# written into the checkout
settings.register_profile("tier1", deadline=None, derandomize=True, database=None)
settings.load_profile("tier1")

import tempfile

import hypothesis.configuration

# Hypothesis caches unicode tables and source constants in its home directory,
# ./.hypothesis by default. Its pytest plugin fills that cache while the test
# modules are collected, which is after this file is loaded, so point the home
# at a directory that is removed when the test run ends.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
hypothesis.configuration.set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

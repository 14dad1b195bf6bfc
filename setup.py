from setuptools import Extension, setup

# The compiled kernels are optional: if the C source does not compile the
# package installs anyway and degstab.backend falls back to the pure Python
# kernels at import time.
setup(ext_modules=[Extension("degstab._fastcore", ["src/degstab/_fastcore.c"], optional=True)])

"""Empty: `bench/tracer.py` imports this module as its `perm` layer, and it goes when that layer does."""

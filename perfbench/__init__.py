"""End-to-end benchmark: see run.py."""

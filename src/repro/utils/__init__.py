"""Shared low-level utilities: RNG plumbing and the splitmix64 hash."""

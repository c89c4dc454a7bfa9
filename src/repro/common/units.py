"""Byte units used throughout the simulators."""

# Decimal byte units (used for DRAM bandwidth, matching DDR4 marketing units).
KB = 1000
MB = 1000 * KB
GB = 1000 * MB

# Binary byte units (used for capacities of caches and hardware tables).
KIB = 1024
MIB = 1024 * KIB

"""IPv4 address machinery: addresses, prefixes, /24 blocks, LPM tries.

Addresses are plain 32-bit integers internally; the classes here wrap
them with parsing, formatting, and containment logic.  The /24 *block*
(``address >> 8``) is the unit of measurement throughout the library,
matching the paper's use of /24 as the smallest BGP-routable prefix.
"""

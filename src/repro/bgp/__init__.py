"""BGP policy routing over the synthetic topology.

Implements Gao-Rexford route propagation (customer > peer > provider
local preference, then shortest AS path, then a deterministic arbitrary
tie-break), AS-path prepending for traffic engineering (paper §6.1), and
the per-packet load-balancing instability model behind the paper's
catchment-flip observations (§6.3, Table 7).
"""

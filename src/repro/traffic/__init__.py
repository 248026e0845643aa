"""DNS traffic substrate: query logs and synthetic workloads.

Stands in for the paper's RSSAC-002-style service logs (DITL datasets,
Table 2): per-/24 query volumes over a day in hourly bins, with the
statistical features the paper leans on — resolver concentration,
heavy-tailed rates, NAT-dense regions, and ping-unresponsive blocks
that still send real traffic.
"""

"""Embedded datasets: orbit representatives for the five known designs.

Payloads are stored as decimal text to stay byte-auditable.  Two of
them expand under bespoke group actions handled here (a multiplier
group on GF(2) x GF(2^5), and the cube-power subgroup of a Singer
cycle); the Singer and Frobenius certificates expand through
``orbits.expand_certificate``.

The n=19 pair list is not embedded (it is distribution-sized); use
the Frobenius search to re-derive it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .designs import Design, Gdd, distinct_row_count
from .gf2n import FieldCtx, build_field
from .lines import desarguesian_spread, line_rows
from .orbits import FrobeniusCertificate, OrbitCertificate

# 7 triangle representatives over GF(2) x GF(2^5), GF(2^5) built on
# x^5 + x^2 + 1.  [a^e, b^f, c^g] encodes corners (a, xi^e), (b, xi^f),
# (c, xi^g); the design is their orbit under (a, y) -> (a, b*y).
_DESIGN6_REPS = """
[0^3,0^9,1^27] [0^4,0^5,1^0] [0^4,0^13,1^15] [0^27,0^29,1^10]
[0^3,1^3,1^7] [0^5,0^28,1^4] [1^13,1^18,1^25]
"""

# 10 exponent triples over GF(2^6) built on x^6 + x^4 + x^3 + x + 1;
# corners (xi^i, xi^j, xi^k), expanded by multiplication with xi^(3l),
# l = 0..20.  Groups: the 21 cosets of the GF(4) subfield.
_GDD6_2_TRIPLES = """
(0,5,61) (0,8,48) (0,9,58) (0,13,56) (0,14,46)
(0,17,20) (0,28,31) (0,43,52) (1,16,41) (2,11,26)
"""

# 224 Singer-orbit representatives (i, j) for the (12,6)-GDD over
# GF(2^12) built on x^12 + x^7 + x^6 + x^5 + x^3 + x + 1: the triangle
# {<1, xi^i>, <1, xi^j>, <xi^i, xi^j>} expanded by the full
# multiplicative group.
_GDD12_6_PAIRS = """
(3,1861) (7,1775) (15,1342) (20,1605) (31,321) (33,186) (34,2042)
(35,537) (36,1492) (38,258) (41,797) (42,1747) (43,703) (44,171)
(49,144) (51,863) (56,556) (57,1778) (58,1937) (68,1054) (69,724)
(75,1394) (78,1707) (80,344) (84,1183) (85,250) (89,1847) (94,775)
(98,1284) (101,834) (103,331) (113,1081) (114,811) (117,1158) (119,928)
(120,1759) (123,1982) (124,1409) (134,1025) (136,1878) (137,1703) (141,1203)
(142,669) (143,946) (146,2001) (147,1571) (148,433) (151,1044) (155,437)
(157,1073) (161,1039) (162,1493) (167,1839) (168,1258) (173,1123) (174,1415)
(176,1888) (177,1688) (179,1706) (184,1544) (188,518) (189,506) (190,1458)
(197,1793) (209,982) (210,1814) (211,2013) (212,1199) (216,1316) (217,1883)
(225,1289) (226,1449) (230,1230) (232,848) (233,1457) (234,1632) (237,619)
(240,1951) (243,787) (247,1986) (249,1654) (255,727) (259,1938) (261,1057)
(265,1298) (266,712) (267,1517) (268,842) (273,1212) (280,1220) (281,1995)
(287,927) (293,1460) (295,680) (301,608) (303,1161) (306,1427) (312,631)
(316,1752) (335,1860) (336,1113) (337,1640) (340,2136) (347,1087) (351,793)
(357,944) (360,839) (365,1601) (366,1811) (367,1618) (368,1524) (370,1249)
(371,1055) (379,900) (380,869) (384,1397) (386,1350) (389,1083) (391,2085)
(395,976) (403,1326) (405,2014) (407,1549) (410,1574) (416,1801) (418,1763)
(419,1884) (425,1254) (428,1969) (448,1239) (454,1638) (457,1622) (461,2195)
(478,1502) (480,1256) (486,1012) (487,1480) (488,1579) (493,1538) (494,1454)
(495,1202) (496,1367) (501,2052) (503,1209) (511,1393) (517,1736) (519,1163)
(523,2153) (529,1435) (541,2038) (552,1297) (559,2018) (566,1737) (570,2033)
(586,1378) (588,1748) (591,1540) (606,1894) (611,1425) (626,2260) (630,1392)
(632,2297) (639,2173) (643,2090) (645,2154) (646,1819) (647,2186) (651,1580)
(654,1491) (659,2046) (661,1789) (664,1477) (671,2307) (675,2243) (679,1652)
(682,1717) (686,1504) (690,1983) (692,1816) (698,1815) (709,1453) (711,2272)
(716,1542) (728,2111) (730,2205) (736,2393) (737,1764) (743,2004) (754,2164)
(766,1954) (788,2065) (790,2254) (794,2026) (795,2070) (802,1743) (804,1949)
(807,1662) (824,1709) (833,2376) (844,2166) (846,2435) (854,2189) (860,2143)
(883,1962) (902,2161) (907,2391) (926,2411) (937,2183) (942,2415) (983,2313)
(990,2479) (991,2344) (1004,2181) (1016,2349) (1048,2425) (1049,2283) (1061,2530)
(1139,2382) (1191,2498) (1194,2616) (1197,2573) (1231,2525) (1257,2627) (1278,2574)
"""

# Frobenius-reduced pair for the balanced design over GF(2^7) on
# x^7 + x + 1.
_FROB7_PAIRS = "(1,9)"

# 35 Frobenius-reduced pairs for the balanced design over GF(2^13) on
# x^13 + x^4 + x^3 + x + 1.
_FROB13_PAIRS = """
(3,3543) (5,1826) (11,1205) (15,1956) (21,2065) (23,3609) (27,883)
(29,258) (35,1574) (37,158) (39,4008) (43,1384) (59,1463) (67,1877)
(71,198) (77,725) (81,2643) (83,1051) (93,2760) (107,3858) (113,3042)
(115,2882) (121,3629) (135,1502) (139,963) (143,1479) (149,586) (151,2486)
(167,1469) (171,483) (181,1489) (211,2265) (223,3211) (241,882) (273,2984)
"""

POLY5 = 0b100101
POLY6 = 0b1011011
POLY7 = 0b10000011
POLY12 = 0b1000011101011
POLY13 = 0b10000000011011


class DatasetError(ValueError):
    pass


@dataclass(frozen=True)
class EmbeddedDataset:
    name: str
    kind: str            # mu-orbit-design | xi3-orbit-gdd | singer-gdd | frobenius-design
    n: int
    m: int
    poly: int
    payload: tuple[tuple[int, ...], ...]


def _parse_pairs(text: str) -> tuple[tuple[int, int], ...]:
    return tuple((int(a), int(b))
                 for a, b in re.findall(r"\((\d+),\s*(\d+)\)", text))


def _parse_triples(text: str) -> tuple[tuple[int, int, int], ...]:
    return tuple((int(a), int(b), int(c))
                 for a, b, c in re.findall(r"\((\d+),\s*(\d+),\s*(\d+)\)", text))


def _parse_mu_reps(text: str) -> tuple[tuple[int, ...], ...]:
    reps = []
    for rep in re.findall(r"\[([^\]]*)\]", text):
        parts = re.findall(r"(\d+)\^(\d+)", rep)
        if len(parts) != 3:
            raise DatasetError(f"bad representative: [{rep}]")
        reps.append(tuple(int(v) for ab in parts for v in ab))
    return tuple(reps)


_DATASETS = {
    "design6": EmbeddedDataset("design6", "mu-orbit-design", 6, 1, POLY5,
                               _parse_mu_reps(_DESIGN6_REPS)),
    "gdd6-2": EmbeddedDataset("gdd6-2", "xi3-orbit-gdd", 6, 2, POLY6,
                              _parse_triples(_GDD6_2_TRIPLES)),
    "gdd12-6": EmbeddedDataset("gdd12-6", "singer-gdd", 12, 6, POLY12,
                               _parse_pairs(_GDD12_6_PAIRS)),
    "frob7": EmbeddedDataset("frob7", "frobenius-design", 7, 1, POLY7,
                             _parse_pairs(_FROB7_PAIRS)),
    "frob13": EmbeddedDataset("frob13", "frobenius-design", 13, 1, POLY13,
                              _parse_pairs(_FROB13_PAIRS)),
}

_EXPECTED_SIZES = {"design6": 7, "gdd6-2": 10, "gdd12-6": 224,
                   "frob7": 1, "frob13": 35}
for _name, _size in _EXPECTED_SIZES.items():
    assert len(_DATASETS[_name].payload) == _size, _name


def dataset_names() -> list[str]:
    return sorted(_DATASETS)


def load_dataset(name: str) -> EmbeddedDataset:
    key = name.strip().lower().replace("_", "-")
    if key == "frob19":
        raise DatasetError(
            "frob19 is an external dataset and is not embedded; "
            "re-derive it with the Frobenius search (n=19, long run)")
    try:
        return _DATASETS[key]
    except KeyError:
        raise DatasetError(f"unknown dataset {name!r}; "
                           f"known: {', '.join(dataset_names())}") from None


def as_certificate(ds: EmbeddedDataset) -> OrbitCertificate | FrobeniusCertificate:
    """Certificate view for the Singer / Frobenius datasets."""
    if ds.kind == "singer-gdd":
        return OrbitCertificate(n=ds.n, m=ds.m, poly=ds.poly, reps=ds.payload)
    if ds.kind == "frobenius-design":
        return FrobeniusCertificate(n=ds.n, poly=ds.poly, pairs=ds.payload)
    raise DatasetError(f"dataset {ds.name} expands under a bespoke action; "
                       "use expand_special")


def multiplier_table(f5: FieldCtx) -> np.ndarray:
    """mu[t, v] = (v & 32) | xi^t * (v & 31): the multiplier xi^t of
    GF(2^5) acting on GF(2) x GF(2^5), a (31, 64) table."""
    v = np.arange(64, dtype=np.int64)
    low = v & 31
    t = np.arange(f5.order, dtype=np.int64)[:, None]
    turned = f5.exp_np[(f5.log_np[low] + t) % f5.order]
    return np.where(low > 0, turned, 0) | (v & 32)


def _expand_design6(ds: EmbeddedDataset) -> Design:
    f5 = build_field(5, ds.poly)
    mu = multiplier_table(f5)
    reps = np.array(ds.payload, dtype=np.int64)
    # corner (a, xi^e) is the vector (a << 5) | 1 moved by xi^e; the
    # orbit of a representative moves all three corners by xi^s
    s = np.arange(f5.order, dtype=np.int64)[None, :, None]
    tri = mu[(reps[:, None, 1::2] + s) % f5.order, (reps[:, None, 0::2] << 5) | 1]
    d = Design(n=6, poly=build_field(6).poly, tri=tri.reshape(-1, 3),
               provenance="dataset design6")
    if distinct_row_count(d.tri) != d.triangle_count:
        raise DatasetError("design6 payload corrupt: repeated triangle in orbit expansion")
    _check_mu_semiregular(mu)
    return d


def _check_mu_semiregular(mu: np.ndarray) -> None:
    # the multiplier action must not fix any line (all line orbits have
    # full length 31)
    lines = line_rows(6)
    fixed = (np.sort(mu[1:, lines], axis=-1) == lines).all(axis=-1).any(axis=0)
    if fixed.any():
        line = lines[np.flatnonzero(fixed)[0]]
        raise DatasetError(f"multiplier action fixes line {line.tolist()}")


def _expand_gdd6_2(ds: EmbeddedDataset) -> Gdd:
    f6 = build_field(6, ds.poly)
    # each representative's orbit under xi^3: all three exponents move by 3l
    reps = np.array(ds.payload, dtype=np.int64).reshape(-1, 1, 3)
    shift = 3 * np.arange(21, dtype=np.int64)[:, None]
    tri = f6.exp_np[(reps + shift) % f6.order].reshape(-1, 3)
    g = Gdd(n=6, poly=ds.poly, tri=tri, m=2,
            groups=desarguesian_spread(f6, 2), provenance="dataset gdd6-2")
    if distinct_row_count(g.tri) != g.triangle_count:
        raise DatasetError("gdd6-2 payload corrupt: repeated triangle in orbit expansion")
    return g


def expand_special(ds: EmbeddedDataset) -> Design | Gdd:
    """Expand the two non-Singer datasets under their own group actions."""
    if ds.kind == "mu-orbit-design":
        return _expand_design6(ds)
    if ds.kind == "xi3-orbit-gdd":
        return _expand_gdd6_2(ds)
    raise DatasetError(f"dataset {ds.name} is certificate-shaped; "
                       "use as_certificate + expand_certificate")

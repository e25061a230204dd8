"""Generation is pinned on every push: SHA-256 digests of the first
5,000 operations of every YCSB table the experiments declare, and of
the priming ranking of every table shape.

The archived figures hold generation only through the simulations they
feed, and the two big sweeps among them (fig14's skew 0.5, fig15's ten
database sizes) are regenerated weekly, not per push.  These digests
were taken before key draws were batched (``next_many``), so a change
that moves one draw, one page id, one write position or one rank fails
here at once.  A table a figure declares but this file does not pin
fails too.

To re-pin after a change that means to move generation, print the
table and paste it below::

    PYTHONPATH=src python tests/test_generation_digests.py
"""

from __future__ import annotations

import hashlib

import pytest

from repro.bench.executor import Cell
from repro.bench.experiments import REGISTRY, fig10_adaptive
from repro.hardware.specs import DEFAULT_SCALE
from repro.workloads.tenancy import MultiTenantWorkload
from repro.workloads.ycsb import MIXES, TUPLES_PER_PAGE, YcsbWorkload

#: Operations digested per table, drawn in chunks of the harness's size.
OPS = 5_000
CHUNK = 1_024


def declared_tables() -> set[tuple[int, float, int, str]]:
    """``(num_tuples, skew, seed, mix)`` of every YCSB stream the
    experiments declare, at quick and full effort alike."""
    tables = set()
    for experiment in REGISTRY.values():
        for quick in (True, False):
            for item in experiment.cells(quick).values():
                if isinstance(item, fig10_adaptive.AdaptiveRun):
                    # The table ``AdaptiveRun.run`` builds.
                    tables.add((DEFAULT_SCALE.pages(fig10_adaptive.DB_GB)
                                * TUPLES_PER_PAGE, 0.3, 3, item.label))
                elif isinstance(item, Cell) and item.tenants:
                    multi = MultiTenantWorkload(item.tenants, item.scale,
                                                seed=item.workload.seed)
                    for spec, stream in zip(item.tenants, multi._streams):
                        if spec.kind == "ycsb":
                            tables.add((stream.workload.num_tuples,
                                        spec.skew, spec.seed, spec.mix))
                elif isinstance(item, Cell) and item.workload.kind == "ycsb":
                    spec = item.workload
                    tables.add((item.scale.pages(spec.db_gb)
                                * TUPLES_PER_PAGE, spec.skew, spec.seed,
                                spec.mix))
    return tables


def ops_digest(num_tuples: int, skew: float, seed: int, mix: str) -> str:
    """Page ids, offsets and write positions of the first :data:`OPS`
    operations, drawn :data:`CHUNK` at a time."""
    workload = YcsbWorkload(num_tuples, MIXES[mix], skew, seed)
    page_ids: list[int] = []
    offsets: list[int] = []
    writes: list[int] = []
    for start in range(0, OPS, CHUNK):
        batch = workload.next_ops(min(CHUNK, OPS - start))
        page_ids += batch.page_ids
        offsets += batch.offsets
        writes += [start + position for position in batch.writes]
    return hashlib.sha256(repr((page_ids, offsets, writes)).encode()) \
        .hexdigest()


def ranking_digest(num_tuples: int, skew: float) -> str:
    ranked = YcsbWorkload(num_tuples, skew=skew).page_popularity()
    return hashlib.sha256(repr(ranked).encode()).hexdigest()


OPS_DIGESTS = {
    (512, 0.9, 7, 'YCSB-BA'):
        '31111ab506ee4941f45deaa916a9b724962d4f3928c2a8c4676f59aff8bc78e6',
    (1280, 0.3, 3, 'YCSB-BA'):
        '1f458f0da7e61f9684c3357d136d594bd62591158146c768e690dce9b3217abb',
    (1280, 0.3, 3, 'YCSB-RO'):
        '339666692c94c24d4b5d3ca18e83b5c1ee8d0aaf9308fc68d1401aafc163a5f8',
    (1280, 0.3, 3, 'YCSB-WH'):
        'ebdb9004e30fb9e10dc147c9c12c83f0e8a7d28bb52f5a629786de81e02b6997',
    (5120, 0.3, 3, 'YCSB-BA'):
        '241f4c6aeb5d2a0e2c9aa9c1d03ca22cad39a3a372d531579e85a30a5be72507',
    (5120, 0.3, 3, 'YCSB-RO'):
        '4bbfbc844438d149ed46019322da729a92ff1e3314798522209043752e77e22c',
    (5120, 0.3, 3, 'YCSB-WH'):
        'b18a76e1f0bd74c293055e84c11ed072b846c7bc6799b85f6d27640fdcae6b27',
    (6400, 0.3, 3, 'YCSB-BA'):
        '83789643e7ab28426eeecc5c98e684b775c34998c06635971bf2821b5a05e8b0',
    (6400, 0.3, 3, 'YCSB-RO'):
        'e14bcfc6b9f92172009b21891dab74eb56d17878f81e38edaa94beff9ba2240e',
    (8960, 0.3, 3, 'YCSB-BA'):
        'ecedd54dbd2e00b6e3085755d994f1f3bb64a2d8e47dd0e90eb319767507497b',
    (8960, 0.3, 3, 'YCSB-RO'):
        'ad3c0e1126e80ac8f25c1716c87e034ba5528d6a0d7703cc7ff80a8d808171a2',
    (8960, 0.3, 3, 'YCSB-WH'):
        '4448964d02e95c0ddcbee518532d551bffb6383e89e165bf6ee90bdd91bba464',
    (11520, 0.3, 3, 'YCSB-BA'):
        'e1f3cb6ba353b930f0e07fdd974b315f1dc057fb371a3608b4db166480bab36d',
    (11520, 0.3, 3, 'YCSB-RO'):
        'f5c90226f8fd2944d7dde8d11a4493a0448075ea852966e7889118a5cc2889ce',
    (12800, 0.3, 3, 'YCSB-BA'):
        'cd9cd11c9e671c18af5b68a230dea3d14793e30b8bafdc816c30a3889ea5bef7',
    (12800, 0.3, 3, 'YCSB-RO'):
        'c2c83f2f2f569dd7a107123533b7a39c00bac90c3c1b306dc0e650e9d68acfb0',
    (12800, 0.3, 3, 'YCSB-WH'):
        'c04f85c780e02e8bc66e8499d59087126366327ccc220c96f956280e032d77c4',
    (16640, 0.3, 3, 'YCSB-BA'):
        'c0ef8f865689319ae059de629e3545d4ad555a8c30372ff767555da81674778f',
    (16640, 0.3, 3, 'YCSB-RO'):
        'cfcd70b6c81209605abdbc69e48e00768925af2f71f3b0e051db99712f4d86b0',
    (16640, 0.3, 3, 'YCSB-WH'):
        '70994c04e68463931b0d511ca74a64af022f7bcc3d3dd3f0b7b9cc05c7af5677',
    (20480, 0.3, 3, 'YCSB-BA'):
        'f508fa5a5fd88c5a0a9c3bd2df99baf881e62388a8e67f6854f86e572027449d',
    (20480, 0.3, 3, 'YCSB-RO'):
        'c87a3abdffb5ca328f5fd5570902781e94e473f1c0d1cf55551c3063be878f5e',
    (20480, 0.3, 3, 'YCSB-WH'):
        'd19f507cc2825775c39641094b11871de7317e6c277858cbd47b2133cc483d71',
    (21760, 0.3, 3, 'YCSB-BA'):
        '982a8e6fc868a5ebc5781abf44388d3db3a063a5f610bc99b95f4b932acf3215',
    (21760, 0.3, 3, 'YCSB-RO'):
        'ffecb33d0aabebf13cb079685a3ff4cdcdf9bd7553e25264c3e8a84212421bb2',
    (24320, 0.3, 3, 'YCSB-BA'):
        'eb37a3fe8220c7cb4f9fb066ccb820893fc9755d1de14e7c03cf012793b56643',
    (24320, 0.3, 3, 'YCSB-RO'):
        '1f54c6a4c7cf8f9f854dd93142e23bd217cff125c1e406d6042e91af3032143b',
    (24320, 0.3, 3, 'YCSB-WH'):
        'f81dd9d4da27edf12cc2c4f4354fa9fc7fc24800e10a85106d776ad8dd433797',
    (25600, 0.5, 3, 'YCSB-BA'):
        '0b446d8a315bd1cafc1e0874c90165ecb7598140598add8d91091aa34627a122',
    (25600, 0.5, 3, 'YCSB-RO'):
        '3a8a7dc6af930bf757a421739fe24858539558cd83131dd9ed8cee6a89decc28',
    (25600, 0.5, 3, 'YCSB-WH'):
        '46f617d41c2b8a3edea110be7316fb5b91ad8804a76b6b5621f97f08717fddaa',
    (28160, 0.3, 3, 'YCSB-BA'):
        '166fcc126ba27f88ccf5c26bf96fce3fa01c22c120fd24ee332a7c0fe50bb045',
    (28160, 0.3, 3, 'YCSB-RO'):
        '933d7384d3903f1c47074773d3fd0d1ac99716a48ef1b7a1ee3569256fe9bfc7',
    (28160, 0.3, 3, 'YCSB-WH'):
        '876c62e2e4d2028d1cb7031e33105e605c990fe55905dbc452e74e8f94e7c43b',
    (32000, 0.3, 3, 'YCSB-BA'):
        '8a7212afd95fb0565593f02ac7ff911ce31925ba019d0b772e3d2628bbcf4859',
    (32000, 0.3, 3, 'YCSB-RO'):
        '0f4121085d86e5431babfe59d055cd84b5987449e25d6c632275311852b9dfc0',
    (32000, 0.3, 3, 'YCSB-WH'):
        '7487357a487b3268c50f3ba72166c3789b44f0b332a8210c905825f8ff6c4471',
    (32768, 0.0, 11, 'YCSB-RO'):
        'e2b961062201a99f6c6ef3551d16c10bcce17df57cbe99b2a9c6667fc4c01e0e',
    (35840, 0.3, 3, 'YCSB-BA'):
        'e3d729a9cc350ef1b107de72426dbdd49895e230bb228280f6158e9e5a843c91',
    (35840, 0.3, 3, 'YCSB-RO'):
        'a334533633b6ec1376c6977f93317a539ae348079262e433b9a70f6425686ea9',
    (35840, 0.3, 3, 'YCSB-WH'):
        '7539b772b61945b37cf63e9eb4ca3c5190ba6efe3cfc15496fc3263b5c8c3ddf',
    (40960, 0.3, 3, 'YCSB-BA'):
        '08fe2aa3910593cb9458597efb617225dd9c6cf898658e750a8e4e3a3469251a',
    (40960, 0.3, 3, 'YCSB-RO'):
        '5edda02956d30fa704a7795bf873bfad85ac72f780a37eb1276a0e5a7ab24846',
    (42240, 0.3, 3, 'YCSB-BA'):
        'b111c507707799c0cfe6f62ed35cd72cb9edee2c9eea13f5bf1326a362f103ab',
    (42240, 0.3, 3, 'YCSB-RO'):
        '37512b52ce3dc5a6d1c993eab168ddab9ad53199aa3e5e38ea02b1da6173ac6c',
    (51200, 0.6, 3, 'YCSB-BA'):
        '9ea74ba7f11b36eb95dde8672e5ef63e8c265bb2e91648ba9c515b9f9d16299c',
    (51200, 0.6, 3, 'YCSB-RO'):
        'bf7822ce7e7cece576987c3802a8969a8430b0f4f81f2da300754fb7dadad155',
    (57600, 0.3, 3, 'YCSB-BA'):
        '718857ce581c787ccbbf2c78b988cbb22379fa5f43eb234bcadcf7c00537ab4e',
    (57600, 0.3, 3, 'YCSB-RO'):
        '5bcd9bd54df26c1ef811503030ba57b18bf7145a8ee151d2becca1d96231f5c6',
    (67840, 0.3, 3, 'YCSB-BA'):
        'ec2b839df39f22b95b113b24f87caa9565dca15dd534da9b2286a4a94cf726e5',
    (67840, 0.3, 3, 'YCSB-RO'):
        '735140630e9f832fd8315ea762b2cbca925fea38449808906a41ae8ca4036ad4',
    (78080, 0.3, 3, 'YCSB-BA'):
        'e762c79c9c21d99e66670023a09684c2769daf3668cd1c8f3959c825436a60f8',
    (78080, 0.3, 3, 'YCSB-RO'):
        'ad918662e58db6ce0b8c3281c246a1a8628ef9b7cf5408e608c16cfd59d9120b',
    (102400, 0.3, 3, 'YCSB-BA'):
        '1db6d1abc4c3fd0bbb8e0e24cb04f1fd09eb4605807e21d27dfd22ae8c0f1898',
    (102400, 0.3, 3, 'YCSB-RO'):
        'd7c8b4f263e346a4a9983644642c5d768e478a1ef14f16d08db4d85bce99798a',
    (102400, 0.3, 3, 'YCSB-WH'):
        '4a5dbd0b25ec3341be1b8e9a6dc4949885e325e021baf52423e1cbdeba9ba450',
}

RANKING_DIGESTS = {
    (512, 0.9):
        '1c158d7de7faec51830a0f2518f2d7dac29bfbc416eaaa059dbf7232b82eccb7',
    (1280, 0.3):
        '135a4df3b677eb84125a098f39baa68a11501bf81252d561cfd9e9bb5512a36d',
    (5120, 0.3):
        '9e508bf7ee1a1825bfee06ff3961c8733e958c7b434b1689a2032598e74d7adf',
    (6400, 0.3):
        '8c50c645f5b820776bff2e023861073c1565aa7b7043950e69f883f6cda2656e',
    (8960, 0.3):
        '18845c99fe357444ae0138d6a6ae4473d0224d7d52b62a6de7054a02ff7fdf0e',
    (11520, 0.3):
        '4ea8bd1f3eefc80d45c7adcb9f86147152af80b301fb3c4f65280d9fcc261cd9',
    (12800, 0.3):
        'c9b2b299051cea82c99cb42c7986344a4e04d50912766e1a0d2bcfb76bd450d2',
    (16640, 0.3):
        '05eab835529790e8a97507955dee68c8b6cfb39149f5da446ea3d48f5f68e4cf',
    (20480, 0.3):
        '4286b0f3e29e3be15087c58f7c89e25af44b1459c5b1d019b7ca36d4dd151bdb',
    (21760, 0.3):
        '1de6be083387c46974f2765c63cb4342c66e3b2091e8a2d5be0172a039fd43ef',
    (24320, 0.3):
        '759ffd24a4719247b72df2cb587402a44a95c5f751077b97d42cc8f2471cc601',
    (25600, 0.5):
        'af40efadc3113eba4061dba081ea15729438081c6d4f722b09ad708861ddb4ed',
    (28160, 0.3):
        '8eeb50056b1f8b4cb5c6360bec307f3490f7de6b4ad7083e49e49adaaa5cb923',
    (32000, 0.3):
        '4219f51bea766e4a78400365d88f99b4e102cadf61787cfc5bdb75656a085ec2',
    (32768, 0.0):
        '12c3eb477f6f966fee0987ab96d292db8c17ceea9fca30668514f3564bd282f9',
    (35840, 0.3):
        '9d5bc38ac0db0f74a41440f95d412d6cb08dae5e132e10569f0c17f7b6021cda',
    (40960, 0.3):
        '4ce03429f3ad80460de6dd062310094c0a66588d446592c535948858da8b2cea',
    (42240, 0.3):
        '41b3ad92da8acd8e4592af4c9463014ad1d9d6f0638dc2c915669f56a03a4805',
    (51200, 0.6):
        '3017bda7a104d3e425669fb2d6c5976a5d06f5b9898dac0667e43ed37cef1a14',
    (57600, 0.3):
        'a517940add224d70c0ab71b051b9a9f37acef65de9f15b0003d206c7b6e9c96b',
    (67840, 0.3):
        'bcb68699b06257d1411d7c02e28fc085722bdd0f4bcc75c9a7bc83c6fe796e0e',
    (78080, 0.3):
        'f176a54c4add62010c74d7e2e9737983ab592f7d6ad9153ada249c6d1c618b75',
    (102400, 0.3):
        '84b63a22446561bb025d1f5b395ebe67e3299d6256a7c85af87314813cc79998',
}


def test_every_declared_table_is_pinned():
    tables = declared_tables()
    assert tables <= set(OPS_DIGESTS), sorted(tables - set(OPS_DIGESTS))
    shapes = {(num_tuples, skew) for num_tuples, skew, _, _ in tables}
    assert shapes <= set(RANKING_DIGESTS), \
        sorted(shapes - set(RANKING_DIGESTS))


@pytest.mark.parametrize("table", sorted(OPS_DIGESTS), ids=str)
def test_first_operations_are_pinned(table):
    assert ops_digest(*table) == OPS_DIGESTS[table]


@pytest.mark.parametrize("shape", sorted(RANKING_DIGESTS), ids=str)
def test_priming_ranking_is_pinned(shape):
    assert ranking_digest(*shape) == RANKING_DIGESTS[shape]


if __name__ == "__main__":
    print("OPS_DIGESTS = {")
    for table in sorted(declared_tables()):
        print(f"    {table!r}:\n        {ops_digest(*table)!r},")
    print("}\n\nRANKING_DIGESTS = {")
    for shape in sorted({table[:2] for table in declared_tables()}):
        print(f"    {shape!r}:\n        {ranking_digest(*shape)!r},")
    print("}")

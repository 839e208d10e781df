"""Printed IR of every registry workload, pinned by sha256.

A module's printed IR feeds its fingerprint, which keys golden caches,
content keys and campaign journals.  A pass or frontend rewrite that
changes one byte of it re-keys every stored campaign, so each workload x
target (and each micro-benchmark with either detector family) is pinned
here: a change must be deliberate, and show up as an edit of this table.
"""

import hashlib

import pytest

from repro.ir import print_module
from repro.workloads import all_workloads, get_workload

#: (workload, target, detectors) -> sha256 of ``print_module``.
PINNED = {
    ('blackscholes', 'avx', ''): 'a934803921d14b93194f4a5dca38bc52f94fe3b85f3e43c5a3871d4915d26439',
    ('blackscholes', 'sse', ''): 'f3c2ccd1d9fa83aad19ce49ee0ffa033c367a883f167fdecc61a527bbbe5b2cd',
    ('cg', 'avx', ''): '466abf0bb980207419c1b4a2dac87ed345cbd4637c787695f0fb2ee884278376',
    ('cg', 'sse', ''): '75f81f1b7b8e8aecf924e07071f66e1b3a255aecb6abbd0991ebbb1e0777a4ae',
    ('chebyshev', 'avx', ''): 'e22676c18209eb090995b6d2f92c8741d065b14ae983ad9701a4b99fff6d3445',
    ('chebyshev', 'sse', ''): 'c602ed06eadc0f294268afa4b0e38ebac1a50323d9e230016a186dd5625709af',
    ('dot_product', 'avx', ''): 'd79d1a66524194de24ee45f50ece2a2b026bcdc1c959d35b26fc59acaf2d0e2b',
    ('dot_product', 'sse', ''): 'abf0ab86bf20a198ac2091f5443ca9b6fd98c08cd039c9ed60430cd7d6da6245',
    ('fluidanimate', 'avx', ''): '1b835cd489ed99f4dc2a1789ac5121402459e79c972bc621daf684de13f72d62',
    ('fluidanimate', 'sse', ''): '7646fd74921bb5aa38b9f612f47acbfbff6c48f9d09bf75944f8617af2918fb1',
    ('gen-cond0', 'avx', ''): '5e4057ed823115863cbc24833d445a21e9ddd4dcd14d90e3f2288e4bb3d6f794',
    ('gen-cond0', 'sse', ''): '44e399954c2eabb15897df4c864a5aaf0db71d6d1a5e707a9003078a450d7814',
    ('gen-cond0-auto', 'avx', ''): 'df408b087eb068bf030fa29a2ba17da936c3ed4ea8d48d3721f99e21c8fd0422',
    ('gen-cond0-auto', 'sse', ''): '1b52acbda8088d20bf3921eadc18205762a291373ca77dd13879f88bb246663d',
    ('gen-cond0-scalar', 'avx', ''): '117fda31384f1267123a0260aa006fc4e538633d399c98ff40e1a6066df0d445',
    ('gen-cond0-scalar', 'sse', ''): '9e82f2c333c47f0ed10ff10ea8f8cf49fd5bd49219181a51a194bff60539d8f4',
    ('gen-cond1', 'avx', ''): '711cded5a8e821e0396a39438f7e58c9855e2122171fb871319e8eb8ce0f1e39',
    ('gen-cond1', 'sse', ''): '467c883db30597826d1367b224d4d65813820db2377a28560a49e2ebacff4b7f',
    ('gen-cond1-auto', 'avx', ''): 'b7fb535d5a0cc88996048f22cd8de5bfa93c094313c98eadc9707def6b87fb88',
    ('gen-cond1-auto', 'sse', ''): 'ec43f7546888c3daa5ce01258cb5afe94fd3e20526227e615a6a75fd50e35f62',
    ('gen-cond1-scalar', 'avx', ''): '3ed320fab5659254f30e72f8f81f7472c2b17e8bc07ef5f42a7499126e436ccf',
    ('gen-cond1-scalar', 'sse', ''): 'f709486a79c23d14eee9464af30aa486abe48b58ad83ccb14a757013ab7bb840',
    ('gen-map0', 'avx', ''): '8a9dabfcbe182f7a7ebeede6f671e57c9bd99e3264e1e961f52c95f99f0c8f77',
    ('gen-map0', 'sse', ''): 'cd94dff61a3a5b056f560634e11c0abedc14e827cfd314217c27bf2c6fba9be1',
    ('gen-map0-auto', 'avx', ''): 'b324b07a7cfb494311c23717f87d71e9d4069da4c826104e2e26bdb95fcc7666',
    ('gen-map0-auto', 'sse', ''): 'a2e988ac3701162ebf71350428a83d0c10c421c9005aacbbf014066277d185ed',
    ('gen-map0-scalar', 'avx', ''): '8e902343de1aff07b61eac2dfbeab333a00865306caca894618ff030f01a7961',
    ('gen-map0-scalar', 'sse', ''): 'b371b22088a95c590ec91652d294b1138da12cb24a5c8de81daa65f44385de84',
    ('gen-map1', 'avx', ''): '3941cf59cce616f6d87ff6210accee490f0b973de9c47ff2fa8fe64e06e79a94',
    ('gen-map1', 'sse', ''): 'da6f5d894dbdaffc52f11326abaf6673b9ff411c5cfbcc715776a3526353919e',
    ('gen-map1-auto', 'avx', ''): '221c86163671afe7e92c556803da0aaeda47858e6062c1f072dbdb0e68fa8531',
    ('gen-map1-auto', 'sse', ''): 'd8e46042b7454b20092a06942e1bd068281a3e187bc63977b778c30b1be2b3e8',
    ('gen-map1-scalar', 'avx', ''): 'c75a28d4d722611f29e0b70b66734d0ce91f4938ef52082e3b72bb0bf26429bd',
    ('gen-map1-scalar', 'sse', ''): '42f339610211cfbe6345369e36870c87c4fc252d9a7c96977da69d8d8a76025f',
    ('gen-reduce0', 'avx', ''): 'a5e1e1489eeb2c7320ecee8ca381e2a52a94af4d53ab70079c683f0881ab234b',
    ('gen-reduce0', 'sse', ''): 'b86fffef113312fd637f4e7d5c03452d1bb9e0adc95c5df1f6bc0d6e344cb65f',
    ('gen-reduce0-auto', 'avx', ''): 'ab18d41f4f3ea4de7d088d122e82add020a0ca1deac5dc6bc510912019aa1023',
    ('gen-reduce0-auto', 'sse', ''): '18637ad2b4901b5cf44c4ba4c23d0be850ed9217155640a5e689f53d2d9f47e1',
    ('gen-reduce0-scalar', 'avx', ''): 'ef01f99f62eb61543a6c685d081937538cbdd376be940487782de4fab901d178',
    ('gen-reduce0-scalar', 'sse', ''): 'd628380aa5c99d933f1b6e1093a00abcfb7eb94e8d201d557c6c1c3e619b03a4',
    ('gen-reduce1', 'avx', ''): 'e4e845d6451b36e886ae4e680d8db238eb6c0ebeeada0add56b3de35a60993d9',
    ('gen-reduce1', 'sse', ''): '3a05270c191ba549c57e24cdc41d9093f79d391ad7819351709420e4f28e59aa',
    ('gen-reduce1-auto', 'avx', ''): '78c75e26f7d1ffb613a5bca54f9ea080a1c3547943c4c053b2c86c2ab213e0fa',
    ('gen-reduce1-auto', 'sse', ''): '5c2814a05911e8c1c663267170f3d82af40f2dbd00a329848813ac2546e4631e',
    ('gen-reduce1-scalar', 'avx', ''): '31ced8d71c16690caeec71ce7646bbafd2944019b4c8da4c5b00174be4e1de2e',
    ('gen-reduce1-scalar', 'sse', ''): '13c30ab188199a723442e00daddb8140bcd81dbc0a83d30c3fbb7276cfccbac6',
    ('jacobi', 'avx', ''): '52ae9b23d991e8600699f6cd64ea9c6ede6b8919e592a3d25a5c0f98ce4f85c2',
    ('jacobi', 'sse', ''): 'f08b5c79fd2e31b4a849e15a802bd2b92f5f67fcce746a04ff5f3f0e30a2d09a',
    ('raytracing', 'avx', ''): '705ede82004ffa597a54346462f9a11e5a06975dcfb66753f01981293383aaa4',
    ('raytracing', 'sse', ''): 'd4a261555a0eafc96f3aa15536dd6ce67ec4ab95e496defb9e3acb58d3f81ea9',
    ('sorting', 'avx', ''): '95b6d392421baa77071651772c27d94a2b927e942bd3389841cec028f9c3bd10',
    ('sorting', 'sse', ''): '8b021cd4e99dc800a718308ebbfcf393f4798af28c4e00803f3e3856fe028df1',
    ('stencil', 'avx', ''): '0475f1a4b39edb9ca70d1afa8c56732087a59897af47e262a4dfc92591002896',
    ('stencil', 'sse', ''): '456e43f8f0607b6cc0907558255356cd3ca4e2d4087e37dd4418a6ecdf5587a3',
    ('swaptions', 'avx', ''): '379ff811a44f4f47d08600257f49c2fe8af009adc3f8f3167d55e8f411dc2825',
    ('swaptions', 'sse', ''): 'd5b1afa16cdc5c146146276933f100f633e4873344c2867d40de978fb7e3dc14',
    ('vcopy', 'avx', ''): '8682c015ba19b0eaa7e20879b3d5ba4b8f5edb285ddbe6c5115040aba53cd122',
    ('vcopy', 'sse', ''): '269ad3d3f36832f3e4cbf7129ad16e8c0f51f5b57617fdb8387e372711365f14',
    ('vector_sum', 'avx', ''): 'a2df6573775ecc47751a2f2167c8271236e281044c2d4022d38bc8235ccd30c1',
    ('vector_sum', 'sse', ''): 'c8eddac62936ecc34882c6a6e54572618864fd2d0f2f76a7d862d55e8e0dd96e',
    ('vcopy', 'avx', 'foreach'): '7bc8de1ea0917e81a9e274d085bf4a88bee084f326e541af94669f0fb0c95597',
    ('vcopy', 'avx', 'uniform'): '14a31dd2133fabc3ca00f9829ec5bb75af9c78697a1d4a2cea61c9c3b24d1e4d',
    ('vcopy', 'sse', 'foreach'): '50691078f8c20d25f0952dcdbfc2625c768ede38d4410230d5816e632077a826',
    ('vcopy', 'sse', 'uniform'): '0e5483f954a77f79b765cb8bb8d96d8346d6c404a51fc538c7814f6a2929ca79',
    ('dot_product', 'avx', 'foreach'): '6dd44823e08acd8703b8992631a914c1e8adaf68fc5bf2ab7ab6b4941d7661ea',
    ('dot_product', 'avx', 'uniform'): '8bb54b7da002c101382504ce91ec429a3a8c74a08c5d771803c3ac2af38dde21',
    ('dot_product', 'sse', 'foreach'): 'a284b6e04d17a5549a068eb2d8aa830edca052c57f61ee2eee9dc39176671d03',
    ('dot_product', 'sse', 'uniform'): '2b3fb8888c2acda2ed55e1c44f4d9fe9eca98b356ecc75fc50e7f1cd2d2ab027',
    ('vector_sum', 'avx', 'foreach'): '40e550369f9a0d397d53a99ff30313c5969b9ddf3c7a99c4be46f6c713bfad2d',
    ('vector_sum', 'avx', 'uniform'): '9d254ce5b1d319710cdda0200c32f4d773a36a46d30108772ba406634282b51d',
    ('vector_sum', 'sse', 'foreach'): 'f35fc9e5c53d5f33df2201da0a205c7c490d30fe7c6736734d7ce02722a7493c',
    ('vector_sum', 'sse', 'uniform'): '9b0f890d94fe32c4969e097feeb4aa56cfa40f799c17c4e4eea6d51ab32596be',
}


def _compile(name: str, target: str, detectors: str):
    return get_workload(name).compile(
        target,
        foreach_detectors=detectors == "foreach",
        uniform_detectors=detectors == "uniform",
    )


def test_every_registry_workload_is_pinned():
    names = {w.name for w in all_workloads()}
    assert names == {name for name, _, detectors in PINNED if not detectors}


@pytest.mark.parametrize("key", sorted(PINNED), ids=lambda key: "-".join(filter(None, key)))
def test_printed_ir_is_unchanged(key):
    module = _compile(*key)
    digest = hashlib.sha256(print_module(module).encode()).hexdigest()
    assert digest == PINNED[key]

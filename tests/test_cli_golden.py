"""CLI stdout and exit codes are pinned byte for byte.

Each command's stdout is hashed with sha256 and compared, together with
its exit code, against a digest recorded from a known-good build. The list
covers every subcommand in text and --json form, one small sweep of every
catalog entry, `sweep --jobs` (accepted and without effect) and the usage
(exit 2) and domain (exit 3) errors, and argparse's help text for the
program and for each subcommand. stderr is not pinned. A change that
alters stdout on purpose must update the digest it changes and say why.

run() is called in process, so a few rows are also launched as
`python -m cfkit` with a buffered stdout, through main(), which flushes
the output and ends the process with os._exit.
"""

import hashlib
import os
import shlex
import subprocess
import sys

import pytest

import cfkit
from cfkit.cli import run

GOLDEN = [
    # every subcommand, text and --json
    ('eval [2,3,7]', 0, 'cb63fafc7a526ac4222b14febbedea36799d9ef58e2d876e9dad376b6531289c'),
    ('eval [2,3,7] --json', 0, '7a2f6d965a4066ed4bedee7cf1a67062d5ad24eff485c12ae07dac438138260b'),
    ('eval [2,3,7] --digits 6', 0, '395a4b949cb8605aed6c88ad8e836b72c648e1e7d030ce742eee1cbda04b6f5a'),
    ('eval [4x40,3]', 0, '0c712f17d9b2ea2f3c470c04a7eeb91d05d4eccc77581bd4871299b1196b105a'),
    ('expand 302/253', 0, '0b353147c3b3572a4cc12f7c087ca7d64761c5450df337b05f34f47cd40ed622'),
    ('expand 51/22 --json', 0, 'ed53e418c3fbd443a2885302f50309b31b272686a049aef0f6b90df4ce0d6a04'),
    ('expand -13/3', 0, 'c8927947ebd4f63c65c94b8f3d4471c43ed2b8d8ede1f64e1d5bce9cb8aaf6fc'),
    # a negative rational before or after --json ({"terms": ["-5", "1", "2"]}), or after --
    ('expand -13/3 --json', 0, '04511497875ac494531b3a467990c0eaf4e4793b6ec87248e0b3d20feecf2bdb'),
    ('expand --json -13/3', 0, '04511497875ac494531b3a467990c0eaf4e4793b6ec87248e0b3d20feecf2bdb'),
    ('expand -- -13/3', 0, 'c8927947ebd4f63c65c94b8f3d4471c43ed2b8d8ede1f64e1d5bce9cb8aaf6fc'),
    ('convergents [2,3,7]', 0, 'bffbcca85beed62ae47af8380bbd473c3d99a1eac0a77c6501937c1fc7db7949'),
    ('convergents [2,3,7] --json', 0, 'e6f5382c04bfc99f1ffdd43842cb1bfe9cc4732038687f8604ab6a45091f9de0'),
    ('seq fib --from -5 --to 10', 0, 'a01994943269424d87712110b2f9e436f28502039d0fb5e8fb42ddf464e82440'),
    ('seq fib --from -5 --to 10 --json', 0, '7b2f14bf7a2097903f30f5baf1e37240a71200e765634373a82dc845075ff893'),
    ('seq fibc --from 0 --to 10', 0, '4758cd17e79f4348cce2508812a6b8ecfa2216227b05968aee9b88de600a409e'),
    ('seq fibc --from 0 --to 10 --json', 0, '8a39fc210a063472444d9543c17e2b40a9a76798f0f92ed46a244a95f005cf59'),
    ('seq lucas --from -5 --to 10', 0, '4e78cdbe8a8210e0ed6be04274c79cc45f5565fee2b10115e3aa833b69d1dffc'),
    ('seq lucas --from -5 --to 10 --json', 0, '2353905005fac0ea4632752ded8010e550e6f590bcc1a8471dbb0628e8b95a3b'),
    ('seq lucas-swapped --from -2 --to 12', 0, 'c20fb97eb00c09a423d3cb765bbd60543ebb49ddfee9b95de1f19d8e8eb7f0d9'),
    ('seq lucas-swapped --from -2 --to 12 --json', 0, '8ee8ced8f7a19dd54bfc39b31efc8e2fa3c17ce52005e637a5d7c23e132af840'),
    ('seq gib --from 0 --to 10 --k -3', 0, 'e002a79c848de419fece85067e585108c5208f5f9bcf3ad5fd46be78320f999a'),
    ('seq gib --from 0 --to 10 --k 3 --json', 0, '93a31b30d8c1ca621c19c0ced23128f3befeec382452a119aa2824ba5b5ee522'),
    ('seq scaled --from 0 --to 8 --t 5', 0, '8d5a5b32f3b5b769e10431e560115057980c4ceec711979ff362599149f4e0e8'),
    ('seq scaled --from 0 --to 8 --t 5 --json', 0, '4cf8a45290ecfbfb01212a2ed8128b6736271fe7d7ac965b15786b8a06b6438f'),
    # --json lines with a negative parameter, values and first term
    ('seq gib --k -2 --from 0 --to 3 --json', 0, '53cf91789d179532b089969d99586e49efe7e74db5b0c9e3a2a1bc9346ba2471'),
    ('seq scaled --t 3 --from 0 --to 3 --json', 0, '04702f16f9803115c02e4633637a261b0cc578e9fa5213562b207ec9ecca5a27'),
    ('seq fib --from -3 --to 12 --json', 0, '9f260da252580add2eb7e4826cbd424e363c545c5af1901ab066ba66b291535d'),
    ('convergents [-3,1,2]', 0, 'f8520132eb01822e54f46d3d294b034e67b90e52ec92caef9586cdb86bb72aa1'),
    ('convergents [-3,1,2] --json', 0, 'fffbed355ad3cfef753fdb6f54a103858d263f97690f820166c4afd4a97ac41c'),
    ('oracle board 10', 0, '69a9cd8a9e12b122cdf59392131bf6c83e7360c2f745921e76f48a16f1cc541a'),
    ('oracle board 10 --json', 0, 'f5632e80659f2e8757b20163650e00aaaaa29f9ff15f47defe13d096ba58cc28'),
    ('oracle bracelet 9', 0, '461144ccfd56ee3cf0f9a9d80e520c5b872166b23092d5fd838ecbdb46d64dab'),
    ('oracle bracelet 9 --json', 0, '79aa75cbbdb65c1720353f61c5461da200c92dc599c0e5aeab1f0e2763ca52f3'),
    ('oracle stacked 2,3,7', 0, '9e62e6489fcc4bc58be7cb23e74d25cbfcc3732c1f70e8c37f12a756d1db9381'),
    ('oracle stacked 2,3,7 --json', 0, 'abcfe5344c5e4a295bf7bb59a800bca595de46df78643ec2abee943a75260b36'),
    ('check ID117 --m 2', 0, 'b380bef0cbb269bf475bf73ccac78780b5c85f28c806dee156552616e5a300f1'),
    ('check ID117 --m 2 --json', 0, 'd955abb420043adb4f663c464f3fac94d79b7ee5eed4aeab358266f89d42da06'),
    ('check THM2_FIB_FORM --m 3 --k -4', 0, 'b6dcebb356413923c2b013ab4054d44c73716c7127201ed74f061bde7e212715'),
    ('check THM5_SWAPPED_LUCAS --m 3', 1, 'fbce0662337e70e05a71630183c6159ffaf47cdc5449726ea86425b6cf69313a'),
    ('check THM5_SWAPPED_LUCAS --m 3 --json', 1, '6dc8e45ae544dcc79087ca72751556626425b5daa0570d156fae1f4e013d1dc3'),
    ('check THM3_ONES --m 1 --k 0', 0, '72d2b5d15a19557cac4f6cd1c7ce146e3285bef827d8a3cac658cd09c5de3101'),
    ('check THM3_ONES --m 1 --k 0 --json', 0, '15c9381b24c9e55edbe4cb6e1fa932451118345249b0ee3d6e0b39902885bfab'),
    ('check LEM_BRIDGE --m 20', 1, 'bf01f1bc6889ae9532ec14b23e5c0fd10744ec8c6117e610e27646358a81a5cc'),
    ('check LEM_BRIDGE --m 20 --json', 1, 'c592217994f9154b610a6c70f48a03197f8ba58c77b54e73657239ba1040cc2c'),
    ('sweep THM5_SWAPPED_LUCAS --m 0..8', 1, '7ae97d7297709f031b4f49e5a96dbdd0ea7256568f791efd8225f56e61dd0a9e'),
    ('sweep THM3_ONES --m 0..4 --k -2..2', 0, '6033d64bc8b05d4cc2850bea436f84f1c6ddb230d59c9c6595483999812f9e2f'),
    ('sweep LEM_BRIDGE --m 0..40', 1, 'a7600b4e03eaa03ad71358508e35ca8afb24c7cb89d0cfccf22149a96d8e9e4d'),
    ('fit 29 --n-max 10', 0, '10159baf262b43a92d95db59dae1f72c645127301661e0a3ce4e38b295a97c58'),
    ('fit 18', 0, '51cfd463b6af8a57b3380487f986abf10f137073e9be453e44a7e9a5b4c0e72b'),
    ('fit 11 --json', 0, 'bae37262bb61670f2afbf0cfe395f406310f0a69d9a30b623d3a9bad2de48fcf'),
    ('surd 19', 0, '481c1f81395ff6ec3f26d1d6f9a52ef738d0b313f530b62dbffd9a4f086ed97b'),
    ('surd 19 --json', 0, '9e4733aa1b200ecb3524a3d705f150813e11d98a702285af3be372ed3037cbe8'),
    # one small sweep of every catalog entry
    ('sweep ID117 --m 0..6 --json', 0, '5ae5c2292c92279adbd9c939eb8f2c01532f3f62671479f0d8915d55c306fe7c'),
    ('sweep ID118 --m 0..6 --json', 0, '2090be6397312954483a9d27e4de2d7769871abbf697f97c469ee0890cc94fca'),
    ('sweep ID_LUCAS7 --m 0..6 --json', 0, '7d35e37d16755af75320090f4cd26d05ccb8fa10807735faa2c907fcb33a6907'),
    ('sweep THM1_GIBONACCI --m 0..3 --k -3..2 --json', 0, '6e227c4d04239f3dbfc2348e40245cbe1ef0447fd5ca3ba0f45f614a8ae12f0f'),
    ('sweep THM2_FIB_FORM --m 0..3 --k -3..2 --json', 0, '51104cbba2aeddcda27fd443ff014c8fb2dd54f3df55980f9ab1505d8de24e09'),
    ('sweep THM3_ONES --m 0..3 --k -2..2 --json', 0, '81d6bbc1cb6b057f2de8c323be8b427d591e5e6ac49cdea6d90b32cdfe4731f9'),
    ('sweep THM4_ELEVEN3 --m 0..6 --json', 0, '94a31a731967308b032d95f1f5706d3083db1abffef016e37efe640954612f85'),
    ('sweep THM5_SWAPPED_LUCAS --m 0..6 --json', 1, '0063f8de5af3be1cb7112ccb375292acfa42f6c8221e5ac592e3306ee61d343e'),
    ('sweep THM6_ELEVEN_FIB --m 0..6 --json', 0, '6b7161261e62021d37d59b4ed7b66f0ee719d5dcb39abb86b90d6e1ba0353f08'),
    ('sweep THM7_FOURS --m 0..6 --json', 0, 'df06734aeeb2d492191b6721fbb9403bae3669959cf30b3c6449be443cf3ca1f'),
    ('sweep THM8_TWENTYNINES --m 0..6 --json', 0, '68bf97c1755e304dc0a2c1be95ebf3e6ec2fada8d3472cd5f342b8b543e25f9a'),
    ('sweep COR_GENERAL_LUCAS --m 0..3 --k 0..3 --json', 0, 'c3bb15da8b0ffdfbcb98741be755b2ef1350fdd6b97679771b7345851a1f87c5'),
    ('sweep EXT_ELEVEN8 --m 0..6 --json', 0, '08a07b20f7c3f8adef5edf707626812412bd0a14d2bb96322b2f20cb5af7fa89'),
    ('sweep EXT_ELEVEN13 --m 0..6 --json', 0, '34cec8ade518d343e00b3ed748c26ebd29f0de1b1fdc4d67aeca7db1e971c24b'),
    ('sweep LEM_3F --m 0..6 --json', 0, '108e546d3927453822fddeb644c6352391c1d6e70a13b319ee29087d6ad54240'),
    ('sweep LEM_4F --m 0..6 --json', 0, '96986ea81646643d33c62dc5d92f55e97f986f0f7eb246012ab109c10d799343'),
    ('sweep LEM_L32 --m 0..6 --json', 0, 'f74d85b609cfbd7443dfa8e42e53d58bb5a9d06a0a1a38d3880fd3732c7739bc'),
    ('sweep LEM_F9 --m 0..6 --json', 0, '08da130ec591461b6d1bbc6bab9b9e47f9bf1d0cc5ad755b1591873997a8407f'),
    ('sweep LEM_11F --m 0..6 --json', 0, '964805bbf4bc2ed54bad938f94de1ac2b1ac26bf9b21dee1e5a1d3779adbaa13'),
    ('sweep LEM_29F --m 0..6 --json', 0, 'ae0b4acae194906f8af0be6acfeb93d2c86b6de15dbb398cc86b2747fcf4c1be'),
    ('sweep LEM_BRIDGE --m 0..30 --json', 1, '70a46e4761fb76892a08b923bd9e941734612585bd7d6bcf2dea62996a10db97'),
    # --jobs is accepted and changes nothing
    ('sweep THM2_FIB_FORM --m 0..8 --k -3..3 --jobs 2', 0, '278fa3045dc14658cbcdcc707dc5e2914eca50baff5c1040fa385092c99dc286'),
    ('sweep THM2_FIB_FORM --m 0..8 --k -3..3 --jobs 2 --json', 0, 'eb7d0fc2e797fd6e521ebda2088adf3c79e6fe789242454099458d62c981e7b9'),
    ('sweep ID117 --m 0..2 --jobs -1', 0, '12596ff9ccfe03d16ddb29e9fff01d81a9ba24434bc4fca15a345c6494fdd835'),
    # where a sweep reuses a decimal string: a k range wider than the strings
    # kept per m, one engine state per k, SKIPPED cases inside a batch, text
    # FAIL lines, and a long m range without k
    ('sweep THM2_FIB_FORM --m 0..20 --k -300..300 --json', 0, 'bd2514449fa4549305b977bf1e7f6f7a5bd802be0f74ac48d0a1da648c84256c'),
    ('sweep COR_GENERAL_LUCAS --m 0..30 --k 0..3 --json', 0, 'b690e982d90bf67374437440701a575fd5d85893e7ea10e36442f9503a7895d5'),
    ('sweep THM3_ONES --m 0..3 --k -100..100 --json', 0, '43bf7b9d1029e51b6f39575bc5ba5125b1419b5dc884eaceb608e8fa9a08725b'),
    ('sweep THM5_SWAPPED_LUCAS --m 2..120', 1, 'd7602618a2d325c74c8a7f32bf2a7d273608fcd5d147bd2458fb846fcc082cf5'),
    ('sweep THM7_FOURS --m 0..300 --json', 0, 'a98ea8a87ff054c32b1f5c11f8727bd22816f8a330a93eeb015e32503f3a14da'),
    # batches of k decided by their linear forms: 64 k, then one k with a
    # nonzero k part; SKIPPED cases inside such batches
    ('sweep THM2_FIB_FORM --m 0..100 --k -32..32 --json', 0, '429c8aeaf686cb1bec5212cc185db7129de4a8ac3084aaa0a5f7f6ad44e5297b'),
    ('sweep THM3_ONES --m 0..40 --k -64..64 --json', 0, 'a25b83ee907ce348c2e3974737761fa68b3b842ebe49461a725aba31e0b684fd'),
    # lemma sweeps, which step in Decimal: failing lines of over 600 digits,
    # and passing --json lines
    ('sweep LEM_BRIDGE --m 0..3000', 1, 'a91e2e674b0f4d234195662fb4abca53fa43d3176018e8077a86f2ae3645ddb3'),
    ('sweep LEM_F9 --m 0..400 --json', 0, 'e07f168b3a5bff348385543527e47748bd64c949c9d5c16972c7166efc179b63'),
    # usage errors (exit 2)
    ('eval [', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('eval [1,,2]', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('expand five', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('check ID117', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('check NO_SUCH_IDENTITY --m 1', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('check ID117 --m 1 --k 2', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('check THM2_FIB_FORM --m 1', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('sweep THM2_FIB_FORM --m 0..5', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('sweep ID117 --m 0..5 --k 0..1', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('sweep ID117 --m 5..0', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('sweep ID117 --m 0..5 --jobs x', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('seq gib --from 0 --to 3', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('seq scaled --from 0 --to 3 --k 2', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('seq fib --from 0 --to 3 --k 1 --t 1', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('seq lucas --from 3 --to 1', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('seq nope --from 0 --to 1', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('oracle stacked a,b', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('fit -5', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('fit 0', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('oracle board -1', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('surd 0', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('eval [²]', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    # a case both malformed and out of the domain reports its shape, as a
    # sweep over that one case does (the check row exited 3 before)
    ('sweep ID117 --m -1..-1 --k 1..1', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('check ID117 --m -1 --k 1', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('surd 19 --max-terms -1', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    # an underscore is no digit, as in the continued-fraction grammar (the
    # row exited 0 with [7,2] before)
    ('expand 3_0/4', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('nope', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    # argparse's own output: help on stdout (exit 0) at a width of 80
    # columns, and an unknown subcommand (exit 2)
    ('--help', 0, 'aa569163ff24eceb08066fe0d1ee269370231749f5caf60f660a880347c5d0a4'),
    ('-h eval', 0, 'aa569163ff24eceb08066fe0d1ee269370231749f5caf60f660a880347c5d0a4'),
    ('eval --help', 0, 'ca57f52a571d6022cf44a18a01409fccdd93991ad3465dbcda0dbcded4f26795'),
    ('expand --help', 0, 'e5fe59d09381382b2b145ba1247ee1dd7c6ad7197c41c33b71303e0442f5fd92'),
    ('convergents --help', 0, 'a34857f6e3af0f24df0f366771988a23e095459265521ac3694638e2ee423fc3'),
    ('seq --help', 0, '428d0356c5cd1827338fb16770bfde000123ef0dadfd98640c0779ddcac0e137'),
    ('oracle --help', 0, '5a679c350c0a43c5ee12d08b14ff60d062a6bd2db686dc46af72d83a0ad3fc08'),
    ('check --help', 0, '5f2057b00867eb433ee175d4cefebb65dc6f381e4a5f4d52f4038fb94aa7dae1'),
    ('sweep --help', 0, '45d280c380d0760a710ba5a4176761af356760cd52a8eb20691a4de45f684f96'),
    ('sweep ID117 --m 0..2 -h', 0, '45d280c380d0760a710ba5a4176761af356760cd52a8eb20691a4de45f684f96'),
    ('fit --help', 0, '905846426a3bc50de55bd3a3ae4fce45225225d31cbc4eb8278a3c8891085742'),
    ('surd --help', 0, '4a428727beb0aa8a6ddacabbe087c049fb109cd5a7bc094f276b587db7981aee'),
    ('bogus', 2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    # a well-formed numeral over the interpreter's 4 300-digit integer-string
    # limit is an internal error, as in eval (the row exited 2 before)
    ('expand ' + '1' * 5000 + '/7', 4, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    # domain and evaluation errors (exit 3)
    ('eval [1,0]', 3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('expand 5/0', 3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('seq fibc --from -2 --to 3', 3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('seq scaled --from 0 --to 3 --t 2', 3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('seq gib --from -1 --to 3 --k 1', 3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('seq scaled --t -3 --from 0 --to 1', 3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('check ID117 --m -1', 3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('check LEM_BRIDGE --m 7', 3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('check COR_GENERAL_LUCAS --m 0 --k -1', 3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('sweep COR_GENERAL_LUCAS --m 0..2 --k -1..0', 3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    # a grid outside the domain fails before the first case is printed
    ('sweep ID117 --m -3..-1', 3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('sweep LEM_BRIDGE --m -4..-1', 3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('sweep LEM_BRIDGE --m 1..4', 3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('sweep LEM_BRIDGE --m 1..4 --json', 3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('sweep LEM_BRIDGE --m -4..5', 3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('oracle board 26', 3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('surd 16', 3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    # a budget of zero terms is well formed and finds no period
    ('surd 19 --max-terms 0', 3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
]


@pytest.mark.parametrize(
    "command, code, digest", GOLDEN, ids=[c if len(c) <= 80 else f"{c[:40]}...({len(c)} chars)" for c, _, _ in GOLDEN]
)
def test_cli_stdout_is_pinned(capsys, monkeypatch, command, code, digest):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    assert run(shlex.split(command)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out[:500]


# One row per subcommand, the program's help and a usage error. A command
# that prints one line keeps it in the buffer until main() flushes it.
LAUNCHED = [
    "eval [2,3,7] --digits 6",
    "expand 51/22 --json",
    "convergents [2,3,7]",
    "seq fib --from -5 --to 10 --json",
    "oracle stacked 2,3,7",
    "check THM5_SWAPPED_LUCAS --m 3",
    "sweep LEM_BRIDGE --m 0..40",
    "fit 29 --n-max 10",
    "surd 19 --json",
    "--help",
    "check ID117",
]


@pytest.mark.parametrize("command", LAUNCHED)
def test_a_launch_writes_the_pinned_stdout(command):
    code, digest = {c: (code, digest) for c, code, digest in GOLDEN}[command]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cfkit.__file__)), COLUMNS="80")
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run(
        [sys.executable, "-m", "cfkit", *shlex.split(command)], capture_output=True, env=env, timeout=120
    )
    assert proc.returncode == code, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest, proc.stdout[:500]

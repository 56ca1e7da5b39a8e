/* The C code of oufar's samplers and of the Ito sums that estimate theta from them.
 *
 * oufar_ar1 is the AR(1) loop of the samplers (ou_process._ar1), in place on v[0..n-1].
 * v[0] is x0.  The loop draws standard normals z_1, z_2, ... and writes the
 * path value y_i = a y_{i-1} + u_i to v[i], with u_i = (z_i s1) s2 + shift,
 * one rounding per operation in this order, from y_0 = 0.0 + x0; v[1..] are
 * not read.  The result has the bits of scipy's lfilter([1], [1, -a]) over
 * w = [x0, u_1, ...]: its delay state after input w_{i-1} is
 * w_{i-1} 0 - y_{i-1} (-a), which is a y_{i-1} except that a zero product
 * takes the sign of w_{i-1} 0.  Adding w_{i-1} 0 to u_i instead gives every
 * sum the same bits and keeps it off the multiply-add chain on y.  Build with
 * -ffp-contract=off: a fused multiply-add rounds once.
 *
 * oufar_ito_sums is the leaf of mle.theta_ito_from_values: the two sums of a path's
 * Ito estimate in one pass, with the bits of np.sum over the products that numpy's
 * passes form (see below).  The flag matters there too: a product fused into its
 * accumulator's add would round once.  numpy's 8 accumulators live in four 2-lane
 * vectors of GCC's vector extension, r[2k + j] in lane j of vector k, so they stay in
 * registers; each lane is the same chain of roundings as numpy's.  No -march flag is
 * needed or used: 2-lane doubles are SSE2, part of every x86-64, and GCC and Clang
 * lower the vectors to what a target has, so there is one compiled path.
 *
 * The z_i are drawn as numpy's Generator.standard_normal draws them from a
 * PCG64 bit generator.  pcg[0..3] hold the 128-bit state and increment as low
 * and high 64-bit words; the state is advanced in place, so the call leaves
 * the bits and the state of standard_normal(out=v[1:]) followed by the
 * recursion above.  pcg[4] and pcg[5] are incremented once per entry into the
 * ziggurat's wedge and tail, the two slow paths.  Link with -lm for log1p and
 * exp.
 *
 * Each PCG64 word waits on the 128-bit multiply-add of the word before it, so the
 * loop steps two chains at once: head0 and head1 hold the states of words i and
 * i + 1, and each takes two steps at a time, s <- M^2 s + (M + 1) inc mod 2^128
 * (pcg_mult2 and jump), which is exactly two steps s <- M s + inc (F. B. Brown,
 * "Random number generation with arbitrary strides", Trans. Am. Nucl. Soc. 71,
 * 1994); the words, and so every bit after them, are the stream's own.  A slow
 * path draws more words from the stream, so a pair in which either word takes one
 * is drawn in sequence from the first word's state (slow_pair), and both heads are
 * rebuilt from the state it leaves.  An odd count draws its last word alone from
 * head0.  The state handed back is that of the last word drawn: after an odd last
 * word head0's, or where its slow path ends; else the step before head0,
 * (head0 - inc) M^-1, exact as M is odd.
 *
 * The generator is PCG64, XSL-RR 128/64 (M. E. O'Neill, "PCG: A family of
 * simple fast space-efficient statistically good algorithms for random
 * number generation", HMC-CS-2014-0905): the state steps before the output.
 * The normal is the 256-layer ziggurat of G. Marsaglia and W. W. Tsang
 * (J. Stat. Softw. 5(8), 2000) as numpy's random_standard_normal writes it,
 * with numpy's tables and constants, except for the sign: numpy negates x
 * under a branch taken half the time at random, which mispredicts on every
 * other variate; here the sign bit is flipped instead, which is exactly IEEE
 * negation (x is never NaN).
 *
 * The tables ki, wi and fi and the ziggurat's code follow numpy/random
 * (src/distributions/distributions.c and ziggurat_constants.h), under this
 * notice:
 *
 * Copyright (c) 2019 Kevin Sheppard. All rights reserved.
 *
 * Redistribution and use in source and binary forms, with or without
 * modification, are permitted provided that the following conditions are met:
 *
 * 1. Redistributions of source code must retain the above copyright notice,
 *    this list of conditions and the following disclaimer.
 *
 * 2. Redistributions in binary form must reproduce the above copyright notice,
 *    this list of conditions and the following disclaimer in the documentation
 *    and/or other materials provided with the distribution.
 *
 * 3. Neither the name of the copyright holder nor the names of its contributors
 *    may be used to endorse or promote products derived from this software
 *    without specific prior written permission.
 *
 * THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS "AS IS"
 * AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT LIMITED TO, THE
 * IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR A PARTICULAR PURPOSE
 * ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT HOLDER OR CONTRIBUTORS BE
 * LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL, SPECIAL, EXEMPLARY, OR
 * CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT LIMITED TO, PROCUREMENT OF
 * SUBSTITUTE GOODS OR SERVICES; LOSS OF USE, DATA, OR PROFITS; OR BUSINESS
 * INTERRUPTION) HOWEVER CAUSED AND ON ANY THEORY OF LIABILITY, WHETHER IN
 * CONTRACT, STRICT LIABILITY, OR TORT (INCLUDING NEGLIGENCE OR OTHERWISE)
 * ARISING IN ANY WAY OUT OF THE USE OF THIS SOFTWARE, EVEN IF ADVISED OF
 * THE POSSIBILITY OF SUCH DAMAGE.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* numpy's ziggurat: layer idx accepts rabs < ki[idx] at once, as rabs wi[idx];
 * fi[idx] is the density at the layer's edge */
static const uint64_t ki[256] = {
    0x0ef33d8025ef6a, 0x00000000000000, 0x0c08be98fbc6a8, 0x0da354fabd8142,
    0x0e51f67ec1eeea, 0x0eb255e9d3f77e, 0x0eef4b817ecab9, 0x0f19470afa44aa,
    0x0f37ed61ffcb18, 0x0f4f469561255c, 0x0f61a5e41ba396, 0x0f707a755396a4,
    0x0f7cb2ec28449a, 0x0f86f10c6357d3, 0x0f8fa6578325de, 0x0f9724c74dd0da,
    0x0f9da907dbf509, 0x0fa360f581fa74, 0x0fa86fde5b4bf8, 0x0facf160d354dc,
    0x0fb0fb6718b90f, 0x0fb49f8d5374c6, 0x0fb7ec2366fe77, 0x0fbaece9a1e50e,
    0x0fbdab9d040bed, 0x0fc03060ff6c57, 0x0fc2821037a248, 0x0fc4a67ae25bd1,
    0x0fc6a2977aee31, 0x0fc87aa92896a4, 0x0fca325e4bde85, 0x0fcbcce902231a,
    0x0fcd4d12f839c4, 0x0fceb54d8fec99, 0x0fd007bf1dc930, 0x0fd1464dd6c4e6,
    0x0fd272a8e2f450, 0x0fd38e4ff0c91e, 0x0fd49a9990b478, 0x0fd598b8920f53,
    0x0fd689c08e99ec, 0x0fd76ea9c8e832, 0x0fd848547b08e8, 0x0fd9178bad2c8c,
    0x0fd9dd07a7add2, 0x0fda9970105e8c, 0x0fdb4d5dc02e20, 0x0fdbf95c5bfcd0,
    0x0fdc9debb99a7d, 0x0fdd3b8118729d, 0x0fddd288342f90, 0x0fde6364369f64,
    0x0fdeee708d514e, 0x0fdf7401a6b42e, 0x0fdff46599ed40, 0x0fe06fe4bc24f2,
    0x0fe0e6c225a258, 0x0fe1593c28b84c, 0x0fe1c78cbc3f99, 0x0fe231e9db1caa,
    0x0fe29885da1b91, 0x0fe2fb8fb54186, 0x0fe35b33558d4a, 0x0fe3b799d0002a,
    0x0fe410e99ead7f, 0x0fe46746d47734, 0x0fe4bad34c095c, 0x0fe50baed29524,
    0x0fe559f74ebc78, 0x0fe5a5c8e41212, 0x0fe5ef3e138689, 0x0fe6366fd91078,
    0x0fe67b75c6d578, 0x0fe6be661e11aa, 0x0fe6ff55e5f4f2, 0x0fe73e5900a702,
    0x0fe77b823e9e39, 0x0fe7b6e37070a2, 0x0fe7f08d774243, 0x0fe8289053f08c,
    0x0fe85efb35173a, 0x0fe893dc840864, 0x0fe8c741f0cebc, 0x0fe8f9387d4ef6,
    0x0fe929cc879b1d, 0x0fe95909d388ea, 0x0fe986fb939aa2, 0x0fe9b3ac714866,
    0x0fe9df2694b6d5, 0x0fea0973abe67c, 0x0fea329cf166a4, 0x0fea5aab32952c,
    0x0fea81a6d5741a, 0x0feaa797de1cf0, 0x0feacc85f3d920, 0x0feaf07865e63c,
    0x0feb13762fec13, 0x0feb3585fe2a4a, 0x0feb56ae3162b4, 0x0feb76f4e284fa,
    0x0feb965fe62014, 0x0febb4f4cf9d7c, 0x0febd2b8f449d0, 0x0febefb16e2e3e,
    0x0fec0be31ebde8, 0x0fec2752b15a15, 0x0fec42049dafd3, 0x0fec5bfd29f196,
    0x0fec75406ceef4, 0x0fec8dd2500cb4, 0x0feca5b6911f12, 0x0fecbcf0c427fe,
    0x0fecd38454fb15, 0x0fece97488c8b3, 0x0fecfec47f91b7, 0x0fed1377358528,
    0x0fed278f844903, 0x0fed3b10242f4c, 0x0fed4dfbad586e, 0x0fed605498c3dd,
    0x0fed721d414fe8, 0x0fed8357e4a982, 0x0fed9406a42cc8, 0x0feda42b85b704,
    0x0fedb3c8746ab4, 0x0fedc2df416652, 0x0fedd171a46e52, 0x0feddf813c8ad3,
    0x0feded0f909980, 0x0fedfa1e0fd414, 0x0fee06ae124bc4, 0x0fee12c0d95a06,
    0x0fee1e579006e0, 0x0fee29734b6524, 0x0fee34150ae4bc, 0x0fee3e3db89b3c,
    0x0fee47ee2982f4, 0x0fee51271db086, 0x0fee59e9407f41, 0x0fee623528b42e,
    0x0fee6a0b5897f1, 0x0fee716c3e077a, 0x0fee7858327b82, 0x0fee7ecf7b06ba,
    0x0fee84d2484ab2, 0x0fee8a60b66343, 0x0fee8f7accc851, 0x0fee94207e25da,
    0x0fee9851a829ea, 0x0fee9c0e13485c, 0x0fee9f557273f4, 0x0feea22762ccae,
    0x0feea4836b42ac, 0x0feea668fc2d71, 0x0feea7d76ed6fa, 0x0feea8ce04fa0a,
    0x0feea94be8333b, 0x0feea950296410, 0x0feea8d9c0075e, 0x0feea7e7897654,
    0x0feea678481d24, 0x0feea48aa29e83, 0x0feea21d22e4da, 0x0fee9f2e352024,
    0x0fee9bbc26af2e, 0x0fee97c524f2e4, 0x0fee93473c0a3a, 0x0fee8e40557516,
    0x0fee88ae369c7a, 0x0fee828e7f3dfd, 0x0fee7bdea7b888, 0x0fee749bff37ff,
    0x0fee6cc3a9bd5e, 0x0fee64529e007e, 0x0fee5b45a32888, 0x0fee51994e57b6,
    0x0fee474a0006cf, 0x0fee3c53e12c50, 0x0fee30b2e02ad8, 0x0fee2462ad8205,
    0x0fee175eb83c5a, 0x0fee09a22a1447, 0x0fedfb27e349cc, 0x0fedebea76216c,
    0x0feddbe422047e, 0x0fedcb0ece39d3, 0x0fedb964042cf4, 0x0feda6dce938c9,
    0x0fed937237e98d, 0x0fed7f1c38a836, 0x0fed69d2b9c02b, 0x0fed538d06ae00,
    0x0fed3c41dea422, 0x0fed23e76a2fd8, 0x0fed0a732fe644, 0x0fecefda07fe34,
    0x0fecd4100eb7b8, 0x0fecb708956eb4, 0x0fec98b61230c1, 0x0fec790a0da978,
    0x0fec57f50f31fe, 0x0fec356686c962, 0x0fec114cb4b335, 0x0febeb948e6fd0,
    0x0febc429a0b692, 0x0feb9af5ee0cdc, 0x0feb6fe1c98542, 0x0feb42d3ad1f9e,
    0x0feb13b00b2d4b, 0x0feae2591a02e9, 0x0feaaeae992257, 0x0fea788d8ee326,
    0x0fea3fcffd73e5, 0x0fea044c8dd9f6, 0x0fe9c5d62f563b, 0x0fe9843ba947a4,
    0x0fe93f471d4728, 0x0fe8f6bd76c5d6, 0x0fe8aa5dc4e8e6, 0x0fe859e07ab1ea,
    0x0fe804f690a940, 0x0fe7ab488233c0, 0x0fe74c751f6aa5, 0x0fe6e8102aa202,
    0x0fe67da0b6abd8, 0x0fe60c9f38307e, 0x0fe5947338f742, 0x0fe51470977280,
    0x0fe48bd436f458, 0x0fe3f9bffd1e37, 0x0fe35d35eeb19c, 0x0fe2b5122fe4fe,
    0x0fe20003995557, 0x0fe13c82788314, 0x0fe068c4ee67b0, 0x0fdf82b02b71aa,
    0x0fde87c57efeaa, 0x0fdd7509c63bfd, 0x0fdc46e529bf13, 0x0fdaf8f82e0282,
    0x0fd985e1b2ba75, 0x0fd7e6ef48cf04, 0x0fd613adbd650b, 0x0fd40149e2f012,
    0x0fd1a1a7b4c7ac, 0x0fcee204761f9e, 0x0fcba8d85e11b2, 0x0fc7d26ecd2d22,
    0x0fc32b2f1e22ed, 0x0fbd6581c0b83a, 0x0fb606c4005434, 0x0fac40582a2874,
    0x0f9e971e014598, 0x0f89fa48a41dfc, 0x0f66c5f7f0302c, 0x0f1a5a4b331c4a,
};

static const double wi[256] = {
    0x1.f493b7815d979p-51, 0x1.b8d0be3fdf6c6p-55, 0x1.250af3c2c5bb4p-54,
    0x1.57cb938443b61p-54, 0x1.801fce82fa70cp-54, 0x1.a230c2e4cd0bcp-54,
    0x1.c004d2f3861f7p-54, 0x1.dac2f5a747274p-54, 0x1.f32482d4cd5c3p-54,
    0x1.04d32278ebbadp-53, 0x1.0f5053b025d43p-53, 0x1.192a697413677p-53,
    0x1.227a28f7a1af5p-53, 0x1.2b52e3863d880p-53, 0x1.33c3fc05791f5p-53,
    0x1.3bd9ec1a2b12fp-53, 0x1.439ef8dff9b55p-53, 0x1.4b1bb363dfea7p-53,
    0x1.52575621ad374p-53, 0x1.59580a707ce96p-53, 0x1.60231cfd97eeap-53,
    0x1.66bd261a37c3dp-53, 0x1.6d2a292000570p-53, 0x1.736dad346f8a6p-53,
    0x1.798ad10b32a77p-53, 0x1.7f845ad46f543p-53, 0x1.855cc53430a77p-53,
    0x1.8b1649e7b769ap-53, 0x1.90b2ea94ecf98p-53, 0x1.96347822c1eeap-53,
    0x1.9b9c98e38c546p-53, 0x1.a0eccdca4a72cp-53, 0x1.a62676d77cd59p-53,
    0x1.ab4ad6e101630p-53, 0x1.b05b16d136c9cp-53, 0x1.b558487427a29p-53,
    0x1.ba4368e529f3ap-53, 0x1.bf1d62abf8232p-53, 0x1.c3e70f9594ef3p-53,
    0x1.c8a13a5323b61p-53, 0x1.cd4c9fe72268bp-53, 0x1.d1e9f0e80b748p-53,
    0x1.d679d29e41f10p-53, 0x1.dafce0023b8c3p-53, 0x1.df73aa9f17653p-53,
    0x1.e3debb5d2edfep-53, 0x1.e83e9337a6f00p-53, 0x1.ec93abdf982cep-53,
    0x1.f0de784f06226p-53, 0x1.f51f654d8f688p-53, 0x1.f956d9e87d7aep-53,
    0x1.fd8537dfa2eacp-53, 0x1.00d56e04234ecp-52, 0x1.02e40f5398f9ap-52,
    0x1.04eea9e16a5fcp-52, 0x1.06f565b72a010p-52, 0x1.08f869071f40bp-52,
    0x1.0af7d84bc6113p-52, 0x1.0cf3d664bcc7fp-52, 0x1.0eec84b16086bp-52,
    0x1.10e20329515eep-52, 0x1.12d4707310fbep-52, 0x1.14c3e9f8e9141p-52,
    0x1.16b08bfc4201ep-52, 0x1.189a71a78da34p-52, 0x1.1a81b51ee6d88p-52,
    0x1.1c666f8f82acbp-52, 0x1.1e48b93e0d42ep-52, 0x1.2028a9940a09fp-52,
    0x1.2206572c4c6e9p-52, 0x1.23e1d7de9c31fp-52, 0x1.25bb40ca96bfbp-52,
    0x1.2792a661dd37fp-52, 0x1.29681c719d71bp-52, 0x1.2b3bb62b82edap-52,
    0x1.2d0d862e1b853p-52, 0x1.2edd9e8cba98ep-52, 0x1.30ac10d6e48d7p-52,
    0x1.3278ee1f4b930p-52, 0x1.3444470265ea1p-52, 0x1.360e2baca52d5p-52,
    0x1.37d6abe05586ap-52, 0x1.399dd6fb2b264p-52, 0x1.3b63bbfb83d03p-52,
    0x1.3d28698561de0p-52, 0x1.3eebede725a83p-52, 0x1.40ae571e09e74p-52,
    0x1.426fb2da6745dp-52, 0x1.44300e83c30a4p-52, 0x1.45ef773cac75dp-52,
    0x1.47adf9e66c336p-52, 0x1.496ba32488f2fp-52, 0x1.4b287f602415dp-52,
    0x1.4ce49acb311dcp-52, 0x1.4ea001638a605p-52, 0x1.505abef5e5562p-52,
    0x1.5214df20a8b5ap-52, 0x1.53ce6d56a664fp-52, 0x1.558774e1bb2c8p-52,
    0x1.574000e555f78p-52, 0x1.58f81c60e8514p-52, 0x1.5aafd23241b59p-52,
    0x1.5c672d17d733dp-52, 0x1.5e1e37b2f8cd3p-52, 0x1.5fd4fc89f5e38p-52,
    0x1.618b860a31fc3p-52, 0x1.6341de8a2b0a2p-52, 0x1.64f8104b7260bp-52,
    0x1.66ae257c99672p-52, 0x1.6864283b13137p-52, 0x1.6a1a22950b2b1p-52,
    0x1.6bd01e8b343bbp-52, 0x1.6d8626128d352p-52, 0x1.6f3c43161f854p-52,
    0x1.70f27f78b68ebp-52, 0x1.72a8e516914c6p-52, 0x1.745f7dc70eedcp-52,
    0x1.7616535e5731fp-52, 0x1.77cd6faeff449p-52, 0x1.7984dc8babd93p-52,
    0x1.7b3ca3c8b1409p-52, 0x1.7cf4cf3db22fbp-52, 0x1.7ead68c73dee7p-52,
    0x1.80667a486ea1fp-52, 0x1.82200dac88676p-52, 0x1.83da2ce899f15p-52,
    0x1.8594e1fd1f5bdp-52, 0x1.875036f7a7ec5p-52, 0x1.890c35f47f72dp-52,
    0x1.8ac8e9205c043p-52, 0x1.8c865aba10c9cp-52, 0x1.8e44951446a27p-52,
    0x1.9003a2973b58fp-52, 0x1.91c38dc288347p-52, 0x1.9384612ef0afcp-52,
    0x1.954627903a28ap-52, 0x1.9708ebb70d5eep-52, 0x1.98ccb892e2a31p-52,
    0x1.9a919933f99bfp-52, 0x1.9c5798cd5d92cp-52, 0x1.9e1ec2b6f7411p-52,
    0x1.9fe7226fad24ap-52, 0x1.a1b0c39f93692p-52, 0x1.a37bb21a2c85bp-52,
    0x1.a547f9e0bbb88p-52, 0x1.a715a724aa9a4p-52, 0x1.a8e4c64a0313dp-52,
    0x1.aab563e9ff108p-52, 0x1.ac878cd5af5cep-52, 0x1.ae5b4e18bb336p-52,
    0x1.b030b4fc3a11ap-52, 0x1.b207cf09a985bp-52, 0x1.b3e0aa0e00c00p-52,
    0x1.b5bb541ce3d03p-52, 0x1.b797db93f8927p-52, 0x1.b9764f1e5f73cp-52,
    0x1.bb56bdb85256ep-52, 0x1.bd3936b2ec0a2p-52, 0x1.bf1dc9b81ae83p-52,
    0x1.c10486cec16a0p-52, 0x1.c2ed7e5f07a2dp-52, 0x1.c4d8c136e0d1cp-52,
    0x1.c6c6608ec8705p-52, 0x1.c8b66e0eba617p-52, 0x1.caa8fbd36a2abp-52,
    0x1.cc9e1c73bd690p-52, 0x1.ce95e3068e037p-52, 0x1.d0906328b8f6ep-52,
    0x1.d28db1037ef20p-52, 0x1.d48de1533c647p-52, 0x1.d691096e7f123p-52,
    0x1.d8973f4d7fba5p-52, 0x1.daa0999206e70p-52, 0x1.dcad2f8fc490ep-52,
    0x1.debd195522e37p-52, 0x1.e0d06fb49d21cp-52, 0x1.e2e74c4ea46f6p-52,
    0x1.e501c99c1d188p-52, 0x1.e72002f97fe25p-52, 0x1.e94214b2abf0ap-52,
    0x1.eb681c0f76f08p-52, 0x1.ed9237610a73ap-52, 0x1.efc086101eca9p-52,
    0x1.f1f328ac25321p-52, 0x1.f42a40fb74d6dp-52, 0x1.f665f20c90168p-52,
    0x1.f8a6604899782p-52, 0x1.faebb187122bfp-52, 0x1.fd360d22fe785p-52,
    0x1.ff859c118f60bp-52, 0x1.00ed447d3a075p-51, 0x1.021a8028fc947p-51,
    0x1.034a983a902abp-51, 0x1.047da4e3ef5c7p-51, 0x1.05b3bf6adb37ep-51,
    0x1.06ed023a72668p-51, 0x1.082988f632e17p-51, 0x1.0969708e8a254p-51,
    0x1.0aacd7571c0c4p-51, 0x1.0bf3dd1eed448p-51, 0x1.0d3ea34aa3d30p-51,
    0x1.0e8d4cf116593p-51, 0x1.0fdffefa69fb6p-51, 0x1.1136e04207041p-51,
    0x1.129219bbb5d35p-51, 0x1.13f1d69c4096dp-51, 0x1.1556448602e3bp-51,
    0x1.16bf93b9deef3p-51, 0x1.182df74d21261p-51, 0x1.19a1a564eebacp-51,
    0x1.1b1ad777f2f8ep-51, 0x1.1c99ca971a694p-51, 0x1.1e1ebfbe4ae39p-51,
    0x1.1fa9fc2e2d901p-51, 0x1.213bc9d04cc81p-51, 0x1.22d477a6fd3eep-51,
    0x1.24745a4ac9c24p-51, 0x1.261bcc77658e0p-51, 0x1.27cb2faa8592ep-51,
    0x1.2982ecd770e78p-51, 0x1.2b437532a0a52p-51, 0x1.2d0d43196db97p-51,
    0x1.2ee0db1a978f5p-51, 0x1.30becd256aeeep-51, 0x1.32a7b5e68a4a3p-51,
    0x1.349c405ae12a3p-51, 0x1.369d27a33a840p-51, 0x1.38ab39256410ap-51,
    0x1.3ac7570ae88fap-51, 0x1.3cf27b31704a6p-51, 0x1.3f2dbaa60f475p-51,
    0x1.417a49cb9e5dap-51, 0x1.43d9815545e94p-51, 0x1.464ce44a73a15p-51,
    0x1.48d62759c43bcp-51, 0x1.4b7739d6b5a27p-51, 0x1.4e3250dcd8902p-51,
    0x1.5109f53e9ac41p-51, 0x1.54011523a7e42p-51, 0x1.571b1a94ae41bp-51,
    0x1.5a5c08b718dd9p-51, 0x1.5dc8a243ad0fep-51, 0x1.61669cf861e4cp-51,
    0x1.653ce7b006aeap-51, 0x1.69540be9fe5c3p-51, 0x1.6db6b8d09e232p-51,
    0x1.72728f05f7a34p-51, 0x1.7799556090673p-51, 0x1.7d42df4d6ce8cp-51,
    0x1.839030529f234p-51, 0x1.8ab0fbfaa7c14p-51, 0x1.92ee0946f4496p-51,
    0x1.9cbee014057abp-51, 0x1.a8fdc7894775ap-51, 0x1.b981f3878fdb1p-51,
    0x1.d3bb48209ad33p-51,
};

static const double fi[256] = {
    0x1.0000000000000p+0, 0x1.f446ac979f087p-1, 0x1.eb7545b6ca915p-1,
    0x1.e3f11e027f077p-1, 0x1.dd36fa704de95p-1, 0x1.d70920657bcf2p-1,
    0x1.d144978a119dcp-1, 0x1.cbd33a8a72debp-1, 0x1.c6a5ecea9787fp-1,
    0x1.c1b1cd9eebaeap-1, 0x1.bceeb4ee1dc82p-1, 0x1.b85653a8ff552p-1,
    0x1.b3e3a8234dd10p-1, 0x1.af92a3f6ce8a2p-1, 0x1.ab5fef17a2504p-1,
    0x1.a748bd550c9e1p-1, 0x1.a34aafdf5af0fp-1, 0x1.9f63bee651fd8p-1,
    0x1.9b9228d240681p-1, 0x1.97d4657617ac1p-1, 0x1.94291c21b7a47p-1,
    0x1.908f1bd31714fp-1, 0x1.8d0554fe60aa8p-1, 0x1.898ad48badf02p-1,
    0x1.861ebfc37bcacp-1, 0x1.82c050f56cf6ep-1, 0x1.7f6ed4b20e2cbp-1,
    0x1.7c29a779c6858p-1, 0x1.78f033ca0b0d5p-1, 0x1.75c1f0770d856p-1,
    0x1.729e5f43f6d12p-1, 0x1.6f850baea7aeep-1, 0x1.6c7589e635a89p-1,
    0x1.696f75e513b2ap-1, 0x1.667272a92e323p-1, 0x1.637e298550c18p-1,
    0x1.6092498802665p-1, 0x1.5dae86f4aff6ap-1, 0x1.5ad29acc85c89p-1,
    0x1.57fe4264c8d8fp-1, 0x1.55313f08d9e46p-1, 0x1.526b55a656cd5p-1,
    0x1.4fac4e820b667p-1, 0x1.4cf3f4f494ec0p-1, 0x1.4a42172dc5278p-1,
    0x1.479685fdf5012p-1, 0x1.44f114a493679p-1, 0x1.425198a355fe3p-1,
    0x1.3fb7e99585b82p-1, 0x1.3d23e10af31a3p-1, 0x1.3a955a662cd0ep-1,
    0x1.380c32bda00d5p-1, 0x1.358848bf550e9p-1, 0x1.33097c9703a35p-1,
    0x1.308fafd6438efp-1, 0x1.2e1ac55ea3beep-1, 0x1.2baaa14d7954ap-1,
    0x1.293f28e93cd15p-1, 0x1.26d84290504edp-1, 0x1.2475d5a90db84p-1,
    0x1.2217ca92ff7f2p-1, 0x1.1fbe0a9929620p-1, 0x1.1d687fe549969p-1,
    0x1.1b171573fd111p-1, 0x1.18c9b709b3c50p-1, 0x1.16805128639dap-1,
    0x1.143ad105ea99cp-1, 0x1.11f9248311f38p-1, 0x1.0fbb3a2325913p-1,
    0x1.0d810104142a0p-1, 0x1.0b4a68d70d9aep-1, 0x1.091761d995d81p-1,
    0x1.06e7dccf03c36p-1, 0x1.04bbcafa63f2ep-1, 0x1.02931e18b822ap-1,
    0x1.006dc85b8cac4p-1, 0x1.fc9778c7bbda1p-2, 0x1.f859da7a900cap-2,
    0x1.f4229cb2f7af3p-2, 0x1.eff1a717e8f95p-2, 0x1.ebc6e20bd1f54p-2,
    0x1.e7a236a4ec3c5p-2, 0x1.e3838ea5f9b85p-2, 0x1.df6ad47763a09p-2,
    0x1.db57f320b56b1p-2, 0x1.d74ad6426de33p-2, 0x1.d3436a1021080p-2,
    0x1.cf419b4ae5b6dp-2, 0x1.cb45573c0a848p-2, 0x1.c74e8bb00d7c7p-2,
    0x1.c35d26f1d2cb8p-2, 0x1.bf7117c616a17p-2, 0x1.bb8a4d6716d91p-2,
    0x1.b7a8b7807131bp-2, 0x1.b3cc462b331cap-2, 0x1.aff4e9ea18552p-2,
    0x1.ac2293a5f5a9ep-2, 0x1.a85534aa4d880p-2, 0x1.a48cbea20c04dp-2,
    0x1.a0c923946843ep-2, 0x1.9d0a55e1e93dfp-2, 0x1.995048418c0c6p-2,
    0x1.959aedbe09f93p-2, 0x1.91ea39b33cb17p-2, 0x1.8e3e1fcb9f115p-2,
    0x1.8a9693fde9188p-2, 0x1.86f38a8ac5ab6p-2, 0x1.8354f7faa0dd9p-2,
    0x1.7fbad11b8d911p-2, 0x1.7c250aff414b0p-2, 0x1.78939af9252ebp-2,
    0x1.7506769c7b1edp-2, 0x1.717d93ba9614cp-2, 0x1.6df8e86124caap-2,
    0x1.6a786ad88de21p-2, 0x1.66fc11a25cbe2p-2, 0x1.6383d377be515p-2,
    0x1.600fa7480d2c8p-2, 0x1.5c9f84376c244p-2, 0x1.5933619d6eebep-2,
    0x1.55cb3703d0100p-2, 0x1.5266fc2533bedp-2, 0x1.4f06a8ebf6d92p-2,
    0x1.4baa357109ca2p-2, 0x1.485199fad6ad4p-2, 0x1.44fccefc324fep-2,
    0x1.41abcd1357a19p-2, 0x1.3e5e8d08ed2dbp-2, 0x1.3b1507cf143aep-2,
    0x1.37cf368081379p-2, 0x1.348d125f9d19ep-2, 0x1.314e94d5af62fp-2,
    0x1.2e13b77210766p-2, 0x1.2adc73e963fddp-2, 0x1.27a8c414db11ep-2,
    0x1.2478a1f17de89p-2, 0x1.214c079f7cc9ep-2, 0x1.1e22ef6188116p-2,
    0x1.1afd539c2f050p-2, 0x1.17db2ed5454e8p-2, 0x1.14bc7bb34ee67p-2,
    0x1.11a134fcf2423p-2, 0x1.0e895598709c4p-2, 0x1.0b74d88b242dap-2,
    0x1.0863b8f904336p-2, 0x1.0555f2242e9d9p-2, 0x1.024b7f6c7747ep-2,
    0x1.fe88b89df93c5p-3, 0x1.f88108cb83235p-3, 0x1.f27fe6ce998d2p-3,
    0x1.ec854a4c99c44p-3, 0x1.e6912b2283cddp-3, 0x1.e0a3816457184p-3,
    0x1.dabc455c7900ap-3, 0x1.d4db6f8b2514fp-3, 0x1.cf00f8a5e6fccp-3,
    0x1.c92cd9971df53p-3, 0x1.c35f0b7d89d47p-3, 0x1.bd9787abe18a1p-3,
    0x1.b7d647a8731aap-3, 0x1.b21b452ccd13ap-3, 0x1.ac667a2571807p-3,
    0x1.a6b7e0b19267ep-3, 0x1.a10f7322d7e3dp-3, 0x1.9b6d2bfd2fe5ap-3,
    0x1.95d105f6a7c27p-3, 0x1.903afbf74fa69p-3, 0x1.8aab09192815bp-3,
    0x1.852128a819a38p-3, 0x1.7f9d5621f7175p-3, 0x1.7a1f8d368a323p-3,
    0x1.74a7c9c7ab5a6p-3, 0x1.6f3607e964716p-3, 0x1.69ca43e21f25cp-3,
    0x1.64647a2adf19cp-3, 0x1.5f04a76f883f9p-3, 0x1.59aac88f31d6cp-3,
    0x1.5456da9c86835p-3, 0x1.4f08dade31fc1p-3, 0x1.49c0c6cf5ce2dp-3,
    0x1.447e9c20375d5p-3, 0x1.3f4258b6931aep-3, 0x1.3a0bfaae8d7eep-3,
    0x1.34db805b4ab88p-3, 0x1.2fb0e847c2a65p-3, 0x1.2a8c3137a071ap-3,
    0x1.256d5a2835eb7p-3, 0x1.2054625183c34p-3, 0x1.1b41492757d42p-3,
    0x1.16340e5a82d63p-3, 0x1.112cb1da26eb9p-3, 0x1.0c2b33d5209bap-3,
    0x1.072f94bb8bf85p-3, 0x1.0239d54067d2ap-3, 0x1.fa93ecb6b222cp-4,
    0x1.f0bff29520e1cp-4, 0x1.e6f7bf29aa54bp-4, 0x1.dd3b56176e88fp-4,
    0x1.d38abb9bd91e5p-4, 0x1.c9e5f493b740ap-4, 0x1.c04d0680b1015p-4,
    0x1.b6bff78f2e233p-4, 0x1.ad3ece9caf633p-4, 0x1.a3c9933ea6286p-4,
    0x1.9a604dc9d5b19p-4, 0x1.9103075a4a0abp-4, 0x1.87b1c9dbf2852p-4,
    0x1.7e6ca013eefd6p-4, 0x1.753395aaa1176p-4, 0x1.6c06b73694a4cp-4,
    0x1.62e6124854d18p-4, 0x1.59d1b577466a4p-4, 0x1.50c9b06fa2baep-4,
    0x1.47ce1401b2213p-4, 0x1.3edef23269a86p-4, 0x1.35fc5e4d93e70p-4,
    0x1.2d266cf9b3111p-4, 0x1.245d344dd0d91p-4, 0x1.1ba0cbe97897dp-4,
    0x1.12f14d0f2179dp-4, 0x1.0a4ed2c159625p-4, 0x1.01b979e30e497p-4,
    0x1.f262c2b6c6e35p-5, 0x1.e16d547b25181p-5, 0x1.d092efeadf162p-5,
    0x1.bfd3e0f282a2cp-5, 0x1.af30790385f70p-5, 0x1.9ea90f9295563p-5,
    0x1.8e3e02a68b5abp-5, 0x1.7defb77af271ep-5, 0x1.6dbe9b398d064p-5,
    0x1.5dab23cf2add4p-5, 0x1.4db5d0e11275dp-5, 0x1.3ddf2ce98eecbp-5,
    0x1.2e27ce83df497p-5, 0x1.1e9059f1f6abcp-5, 0x1.0f1982e968011p-5,
    0x1.ff881d718a5c4p-6, 0x1.e121adb828c75p-6, 0x1.c301983cd091ap-6,
    0x1.a529f4e22ebf8p-6, 0x1.879d1b600c10ap-6, 0x1.6a5daf40bbf82p-6,
    0x1.4d6eaf2fbb064p-6, 0x1.30d388dab5e13p-6, 0x1.1490334603012p-6,
    0x1.f152a4f72dd49p-7, 0x1.ba48d274f8facp-7, 0x1.841040d8da478p-7,
    0x1.4eb96421acfe0p-7, 0x1.1a59229952f92p-7, 0x1.ce160f8ec6837p-8,
    0x1.69ea8d90cb85dp-8, 0x1.08a1f03b0b1fdp-8, 0x1.55f9f43c1b067p-9,
    0x1.4a605b6b9f70fp-10,
};

static const double nor_r = 3.6541528853610088;       /* the tail's start */
static const double nor_inv_r = 0.27366123732975827;  /* 1 / nor_r */

typedef unsigned __int128 u128;

/* PCG64's multiplier M, its square (two steps at once) and its inverse mod 2^128 (M is odd) */
static const u128 pcg_mult = ((u128)0x2360ED051FC65DA4ULL << 64) | 0x4385DF649FCCF645ULL;
static const u128 pcg_mult2 = ((u128)0x17BCE35BDF69743CULL << 64) | 0x529ED9EB20E0AE99ULL;
static const u128 pcg_mult_inv = ((u128)0x07DDA22B93979860ULL << 64) | 0x98ABC8B0716EAC8DULL;

/* PCG64's output of the state that the step to a word left */
static inline uint64_t pcg_output(u128 state)
{
    uint64_t x = (uint64_t)(state >> 64) ^ (uint64_t)state;
    unsigned rot = (unsigned)(state >> 122);
    return (x >> rot) | (x << ((-rot) & 63));
}

/* PCG64's step and output, on a state held in the caller's registers */
static inline uint64_t next_uint64(u128 *state, u128 inc)
{
    *state = *state * pcg_mult + inc;
    return pcg_output(*state);
}

/* the ziggurat's layer of a word r (bits 0-7), and its candidate |x| in units of
 * wi[layer] (bits 9-60, numpy's (r >> 9) & 0x000fffffffffffff without the mask's register) */
static inline int layer(uint64_t r) { return (int)(r & 0xff); }
static inline uint64_t rabs_of(uint64_t r) { return (r << 3) >> 12; }

/* the candidate x = rabs wi[idx] of r, with the sign of bit 8 of r */
static inline double candidate(uint64_t r)
{
    /* rabs < 2^52, so the signed conversion is exact (one cvtsi2sd) */
    double x = (double)(int64_t)rabs_of(r) * wi[layer(r)];
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    bits ^= ((r >> 8) & 1) << 63;
    memcpy(&x, &bits, sizeof x);
    return x;
}

struct pcg64 {
    u128 state, inc;
    uint64_t wedges, tails;
};

static inline double next_double(struct pcg64 *g)
{
    return (double)(next_uint64(&g->state, g->inc) >> 11) * (1.0 / 9007199254740992.0);
}

/* numpy's random_standard_normal from its first word r, which the caller has drawn.
 * Out of line, so that the loop keeps its values in registers on the fast path. */
static __attribute__((noinline)) double ziggurat(struct pcg64 *g, uint64_t r)
{
    for (;;) {
        int idx = layer(r);
        uint64_t rabs = rabs_of(r);
        double x = candidate(r);
        if (rabs < ki[idx])
            return x;
        if (idx == 0) {
            g->tails++;
            for (;;) {
                double xx = -nor_inv_r * log1p(-next_double(g));
                double yy = -log1p(-next_double(g));
                if (yy + yy > xx * xx)
                    return ((rabs >> 8) & 0x1) ? -(nor_r + xx) : nor_r + xx;
            }
        }
        g->wedges++;
        if ((fi[idx - 1] - fi[idx]) * next_double(g) + fi[idx] < exp(-0.5 * x * x))
            return x;
        r = next_uint64(&g->state, g->inc);
    }
}

/* whether the ziggurat takes the word r on its fast path, as candidate(r) */
static inline int fast(uint64_t r) { return rabs_of(r) < ki[layer(r)]; }

/* the recursion's factors and its last value y and innovation prev */
struct recursion {
    double a, s1, s2, shift, y, prev;
};

/* the next path value from the normal z: a y + (prev 0 + u) with u = (z s1) s2 + shift */
static inline double recur(struct recursion *w, double z)
{
    double u = z * w->s1 * w->s2 + w->shift;
    w->y = w->a * w->y + (w->prev * 0.0 + u);
    w->prev = u;
    return w->y;
}

/* the normals of the word whose state g holds and of the word after it, in sequence, for
 * a pair in which a slow path draws more words; g is left at the last word drawn */
static __attribute__((noinline)) void slow_pair(struct pcg64 *g, double *z)
{
    uint64_t r = pcg_output(g->state);
    z[0] = fast(r) ? candidate(r) : ziggurat(g, r);
    r = next_uint64(&g->state, g->inc);
    z[1] = fast(r) ? candidate(r) : ziggurat(g, r);
}

void oufar_ar1(double a, double s1, double s2, double shift, double *v, ptrdiff_t n,
               uint64_t *pcg)
{
    struct pcg64 g = {((u128)pcg[1] << 64) | pcg[0], ((u128)pcg[3] << 64) | pcg[2], 0, 0};
    struct recursion w = {a, s1, s2, shift, 0.0 + v[0], v[0]};
    const u128 inc = g.inc, jump = (pcg_mult + 1) * inc;
    /* the states of the next two words; two steps of each are one of M^2 s + (M + 1) inc */
    u128 head0 = g.state * pcg_mult + inc, head1 = head0 * pcg_mult + inc;
    ptrdiff_t i = 1;
    for (; i + 1 < n; i += 2) {
        uint64_t r0 = pcg_output(head0), r1 = pcg_output(head1);
        double z[2];
        if (__builtin_expect(fast(r0) & fast(r1), 1)) {
            z[0] = candidate(r0);
            z[1] = candidate(r1);
            head0 = head0 * pcg_mult2 + jump;
            head1 = head1 * pcg_mult2 + jump;
        } else {
            /* a slow path draws more words: both heads follow the last of them */
            g.state = head0;
            slow_pair(&g, z);
            head0 = g.state * pcg_mult + inc;
            head1 = head0 * pcg_mult + inc;
        }
        v[i] = recur(&w, z[0]);
        v[i + 1] = recur(&w, z[1]);
    }
    if (i < n) {
        /* an odd count: the last normal from head0 alone */
        uint64_t r = pcg_output(head0);
        g.state = head0;
        v[i] = recur(&w, fast(r) ? candidate(r) : ziggurat(&g, r));
    } else {
        /* the last word drawn is the one before head0's */
        g.state = (head0 - inc) * pcg_mult_inv;
    }
    pcg[0] = (uint64_t)g.state;
    pcg[1] = (uint64_t)(g.state >> 64);
    pcg[4] += g.wedges;
    pcg[5] += g.tails;
}

/* The two sums of n terms t_i = v[i] (v[i+1] - v[i]) and q_i = v[i] v[i], i < n, each
 * in numpy's pairwise order (DOUBLE_pairwise_sum of numpy/_core/src/umath/loops_utils.h.src):
 * fewer than 8 terms in sequence from -0.0, up to 128 in 8 accumulators, combined as
 * ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest in sequence; longer
 * runs split at n/2 - (n/2) % 8.  Each accumulator is its own chain of roundings, so
 * they are held as four 2-lane vectors, r[2k + j] in lane j of vector k, whose
 * lane-wise adds round as the eight scalar adds do. */
struct sums {
    double ito, sq;
};

typedef double lanes __attribute__((vector_size(2 * sizeof(double))));

/* v[i] and v[i + 1], at any alignment */
static inline lanes load(const double *v)
{
    lanes x;
    memcpy(&x, v, sizeof x);
    return x;
}

/* the terms t_i and t_{i+1} */
static inline lanes ito_terms(const double *v)
{
    lanes x = load(v);
    return x * (load(v + 1) - x);
}

static inline lanes sq_terms(const double *v)
{
    lanes x = load(v);
    return x * x;
}

/* ((x0[0] + x0[1]) + (x1[0] + x1[1])) + ((x2[0] + x2[1]) + (x3[0] + x3[1])) */
static inline double combine(lanes x0, lanes x1, lanes x2, lanes x3)
{
    return ((x0[0] + x0[1]) + (x1[0] + x1[1])) + ((x2[0] + x2[1]) + (x3[0] + x3[1]));
}

static struct sums pairwise_sums(const double *v, ptrdiff_t n)
{
    struct sums s = {-0.0, -0.0};
    if (n < 8) {
        for (ptrdiff_t i = 0; i < n; i++) {
            s.ito += v[i] * (v[i + 1] - v[i]);
            s.sq += v[i] * v[i];
        }
    } else if (n <= 128) {
        lanes r0 = ito_terms(v), r1 = ito_terms(v + 2), r2 = ito_terms(v + 4),
              r3 = ito_terms(v + 6);
        lanes q0 = sq_terms(v), q1 = sq_terms(v + 2), q2 = sq_terms(v + 4), q3 = sq_terms(v + 6);
        ptrdiff_t i;
        for (i = 8; i < n - n % 8; i += 8) {
            r0 += ito_terms(v + i);
            r1 += ito_terms(v + i + 2);
            r2 += ito_terms(v + i + 4);
            r3 += ito_terms(v + i + 6);
            q0 += sq_terms(v + i);
            q1 += sq_terms(v + i + 2);
            q2 += sq_terms(v + i + 4);
            q3 += sq_terms(v + i + 6);
        }
        s.ito = combine(r0, r1, r2, r3);
        s.sq = combine(q0, q1, q2, q3);
        for (; i < n; i++) {
            s.ito += v[i] * (v[i + 1] - v[i]);
            s.sq += v[i] * v[i];
        }
    } else {
        ptrdiff_t half = n / 2 - (n / 2) % 8;
        struct sums first = pairwise_sums(v, half), second = pairwise_sums(v + half, n - half);
        s.ito = first.ito + second.ito;
        s.sq = first.sq + second.sq;
    }
    return s;
}

/* The Ito sums of the path v[0..n]: out[0] = sum v[i] (v[i+1] - v[i]) and out[1] =
 * sum v[i]^2 over i < n, with the bits of np.sum over numpy's products (np.subtract,
 * then np.multiply): np.add.reduce seeds its accumulator with +0.0, the identity of add,
 * and adds the pairwise sum to it, so a sum of zeros is +0.0 whatever their signs. */
void oufar_ito_sums(const double *v, ptrdiff_t n, double *out)
{
    struct sums s = pairwise_sums(v, n);
    out[0] = 0.0 + s.ito;
    out[1] = 0.0 + s.sq;
}

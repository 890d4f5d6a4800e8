package vfs

import (
	"bytes"
	"math/rand"
	"os"
	"testing"
)

// tearMode picks how a power cut treats the writes it finds unsynced.
type tearMode uint8

const (
	tearOff  tearMode = iota // dropped whole
	tearMask                 // every candidate offered to a mask
	tearRNG                  // the newest candidate torn by the seeded RNG
	tearModes
)

// modelFile is a file under FaultFS's crash semantics written plainly:
// two whole-file images, the live one and the durable one, and a Sync
// that copies the first into the second. FaultFS keeps one image and
// must behave exactly like this.
type modelFile struct {
	live, durable []byte
	off           int64 // the handle's offset for Write
	unsynced      []extent
	tearFrom      int
}

func (m *modelFile) write(p []byte, off int64) {
	if end := off + int64(len(p)); int64(len(m.live)) < end {
		m.live = append(m.live, make([]byte, end-int64(len(m.live)))...)
	}
	copy(m.live[off:], p)
	m.unsynced = append(m.unsynced, extent{off: off, len: len(p)})
}

func (m *modelFile) truncate(size int64) {
	if size < int64(len(m.live)) {
		m.live = m.live[:size]
	} else {
		m.live = append(m.live, make([]byte, size-int64(len(m.live)))...)
	}
	m.tearFrom = len(m.unsynced)
}

func (m *modelFile) sync() {
	m.durable = bytes.Clone(m.live)
	m.unsynced, m.tearFrom = nil, 0
}

// cut is a power cut and the reopen after it: the durable image, with
// the tearing candidates' kept sectors taken from the live one.
func (m *modelFile) cut(path string, mode tearMode, mask func(string, int) []bool, rng *rand.Rand) {
	img := bytes.Clone(m.durable)
	if cands := m.unsynced[m.tearFrom:]; mode != tearOff && len(cands) > 0 {
		if mode == tearRNG {
			cands = cands[len(cands)-1:]
		}
		for _, w := range cands {
			sectors := (w.len + modelSector - 1) / modelSector
			var keep []bool
			if mode == tearMask {
				keep = mask(path, sectors)
			} else {
				keep = make([]bool, sectors)
				for i := range keep {
					keep[i] = rng.Intn(2) == 0
				}
			}
			for s := 0; s < sectors && s < len(keep); s++ {
				if !keep[s] {
					continue
				}
				off := w.off + int64(s*modelSector)
				end := min(off+int64(modelSector), w.off+int64(w.len))
				if int64(len(img)) < end {
					img = append(img, make([]byte, end-int64(len(img)))...)
				}
				copy(img[off:end], m.live[off:end])
			}
		}
	}
	m.live, m.off = img, 0
	m.sync()
}

// modelMask returns a tear mask that is a function of the file, how many
// times it has been asked about that file, and seed — not of the order in
// which a power cut visits the files, which is a map's. A fifth of its
// answers are short, as a mask's may be.
func modelMask(seed int64) func(string, int) []bool {
	calls := map[string]int{}
	return func(path string, sectors int) []bool {
		calls[path]++
		r := rand.New(rand.NewSource(seed*1_000_003 + int64(path[len(path)-1])*1_009 + int64(calls[path])))
		keep := make([]bool, sectors)
		for i := range keep {
			keep[i] = r.Intn(2) == 0
		}
		if r.Intn(5) == 0 {
			keep = keep[:sectors/2]
		}
		return keep
	}
}

// modelProgram is the seeded random operation sequence the model test
// and the fuzz target's corpus run.
func modelProgram(seed int64, ops int) []byte {
	p := make([]byte, 4*ops)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// modelSector is the tearing granularity the model test runs at, small
// enough that a write spans several sectors.
const modelSector = 4

// runModel runs prog against a FaultFS and the two-image model side by
// side over three files. Each operation takes four bytes: kind, file and
// two operands. Writes land below and past the durable prefix and overlap
// one another; Truncate grows files and shrinks them below the durable
// prefix; after every operation the file it touched must match, and
// after every power cut every recovered one.
func runModel(t *testing.T, mode tearMode, seed int64, prog []byte) {
	t.Helper()
	paths := []string{"/a", "/b", "/c"}
	fs := NewFaultFS(seed)
	fs.SetSectorSize(modelSector)
	fs.SetTornWrites(mode != tearOff)
	if mode == tearMask {
		fs.SetTearMask(modelMask(seed))
	}
	mask, rng := modelMask(seed), rand.New(rand.NewSource(seed))
	models := make([]*modelFile, len(paths))
	for i := range models {
		models[i] = &modelFile{}
	}
	handles := make([]File, len(paths))
	open := func() {
		for i, p := range paths {
			handles[i] = mustOpen(t, fs, p, os.O_CREATE|os.O_RDWR)
		}
	}
	open()
	if err := fs.SyncDir("/"); err != nil {
		t.Fatal(err)
	}
	sync := func(i int) {
		if err := handles[i].Sync(); err != nil {
			t.Fatal(err)
		}
		models[i].sync()
	}
	check := func(step int, what string, files ...int) {
		t.Helper()
		for _, i := range files {
			p := paths[i]
			got, want := readAll(t, fs, p), models[i].live
			st, err := fs.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) || st.Size() != int64(len(want)) {
				t.Fatalf("mode %d seed %d op %d (%s): %s holds %d bytes (Stat %d)\n %x\nwant %d\n %x",
					mode, seed, step, what, p, len(got), st.Size(), got, len(want), want)
			}
		}
	}
	const maxOps = 1024
	for step := 0; step+4 <= len(prog) && step < 4*maxOps; step += 4 {
		kind, i, a, b := prog[step]%8, int(prog[step+1])%len(paths), int64(prog[step+2]), int(prog[step+3])
		m, h := models[i], handles[i]
		data := make([]byte, b%24+1)
		for j := range data {
			data[j] = byte(1 + (step*31+j)%255)
		}
		var what string
		touched := []int{i}
		switch kind {
		case 0, 1: // anywhere in the first 80 bytes
			what = "WriteAt"
			writeAt(t, h, data, a%80)
			m.write(data, a%80)
		case 2: // inside the durable prefix
			what = "WriteAt below durable"
			off := a % int64(len(m.durable)+1)
			writeAt(t, h, data, off)
			m.write(data, off)
		case 3:
			what = "Write"
			if _, err := h.Write(data); err != nil {
				t.Fatal(err)
			}
			m.write(data, m.off)
			m.off += int64(len(data))
		case 4:
			what = "Truncate grow"
			size := int64(len(m.live)) + a%40
			if err := h.Truncate(size); err != nil {
				t.Fatal(err)
			}
			m.truncate(size)
		case 5:
			what = "Truncate shrink"
			size := a % int64(len(m.live)+1)
			if err := h.Truncate(size); err != nil {
				t.Fatal(err)
			}
			m.truncate(size)
		case 6:
			what = "Sync"
			sync(i)
		case 7:
			what = "PowerCut"
			if mode == tearRNG {
				// A power cut visits files in map order, so under the RNG
				// only file i may draw from it.
				for k := range models {
					if k != i && len(models[k].unsynced) > models[k].tearFrom {
						sync(k)
					}
				}
			}
			fs.PowerCut()
			fs.Recover()
			for k, p := range paths {
				models[k].cut(p, mode, mask, rng)
			}
			open()
			touched = []int{0, 1, 2}
		}
		check(step/4, what, touched...)
	}
}

// TestFaultFSMatchesTwoImageModel checks the one-image FaultFS against
// the two-image model over seeded random programs, with tearing off,
// under a mask and under the seeded RNG.
func TestFaultFSMatchesTwoImageModel(t *testing.T) {
	for mode := tearMode(0); mode < tearModes; mode++ {
		for seed := int64(1); seed <= 30; seed++ {
			runModel(t, mode, seed, modelProgram(seed, 400))
		}
	}
}

// FuzzFaultFSModel is TestFaultFSMatchesTwoImageModel's body under the
// fuzzer, seeded with the test's first programs.
func FuzzFaultFSModel(f *testing.F) {
	for mode := tearMode(0); mode < tearModes; mode++ {
		for seed := int64(1); seed <= 5; seed++ {
			f.Add(uint8(mode), seed, modelProgram(seed, 400))
		}
	}
	f.Fuzz(func(t *testing.T, mode uint8, seed int64, prog []byte) {
		runModel(t, tearMode(mode%uint8(tearModes)), seed, prog)
	})
}

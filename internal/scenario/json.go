package scenario

import (
	"strconv"

	"repro/internal/canon"
)

// WriteJSON writes the definition exactly as json.Marshal encodes it:
// fields in struct order, an omitempty field left out when zero, nil
// phases as null. A spec's canonical bytes embed it, so every exported
// field must be written here (cfvet's hashfield check holds it to that).
func (d Definition) WriteJSON(w *canon.JSONWriter) {
	w.Raw("{")
	w.Field("name")
	w.String(d.Name)
	if d.Description != "" {
		w.Field("description")
		w.String(d.Description)
	}
	if d.Decomposition != "" {
		w.Field("decomposition")
		w.String(d.Decomposition)
	}
	if d.Iterations != 0 {
		w.Field("iterations")
		w.Int(int64(d.Iterations))
	}
	w.Field("phases")
	if d.Phases == nil {
		w.Raw("null")
	} else {
		w.Raw("[")
		for i, p := range d.Phases {
			if i > 0 {
				w.Raw(",")
			}
			p.writeJSON(w)
		}
		w.Raw("]")
	}
	w.Raw("}")
}

// writeJSON writes the phase exactly as json.Marshal encodes it.
func (p PhaseDef) writeJSON(w *canon.JSONWriter) {
	w.Raw("{")
	if p.Name != "" {
		w.Field("name")
		w.String(p.Name)
	}
	w.Field("instructions")
	w.Float(p.Instructions)
	w.Field("miss_per_instr")
	w.Float(p.MissPerInstr)
	w.Field("ipc")
	w.Float(p.IPC)
	if p.RemoteFrac != 0 {
		w.Field("remote_frac")
		w.Float(p.RemoteFrac)
	}
	if p.Exposure != nil {
		w.Field("exposure")
		w.Float(*p.Exposure)
	}
	if p.ChunksPerCore != 0 {
		w.Field("chunks_per_core")
		w.Int(int64(p.ChunksPerCore))
	}
	if p.JitterFrac != 0 {
		w.Field("jitter_frac")
		w.Float(p.JitterFrac)
	}
	if p.MissJitter != 0 {
		w.Field("miss_jitter")
		w.Float(p.MissJitter)
	}
	if p.Repeat != 0 {
		w.Field("repeat")
		w.Int(int64(p.Repeat))
	}
	w.Raw("}")
}

var (
	definitionFields = []string{"name", "description", "decomposition", "iterations", "phases"}
	phaseFields      = []string{"name", "instructions", "miss_per_instr", "ipc", "remote_frac",
		"exposure", "chunks_per_core", "jitter_frac", "miss_jitter", "repeat"}
)

// ReadPlainJSON reads a definition object from p into d as
// encoding/json decodes one, within the subset p reads; a field it does
// not know fails p, which sends the document to encoding/json.
func (d *Definition) ReadPlainJSON(p *canon.PlainJSON) {
	if !p.Open('{') {
		return
	}
	var seen uint64
	for first := true; p.Next('}', first); first = false {
		switch p.Field(definitionFields, &seen) {
		case "name":
			d.Name = p.String()
		case "description":
			d.Description = p.String()
		case "decomposition":
			d.Decomposition = p.String()
		case "iterations":
			d.Iterations = int(p.Int(strconv.IntSize))
		case "phases":
			// encoding/json decodes [] to an empty slice, not nil.
			d.Phases = []PhaseDef{}
			if !p.Open('[') {
				return
			}
			for first := true; p.Next(']', first); first = false {
				var ph PhaseDef
				ph.readPlainJSON(p)
				d.Phases = append(d.Phases, ph)
			}
		}
	}
}

// readPlainJSON reads a phase object from p into ph.
func (ph *PhaseDef) readPlainJSON(p *canon.PlainJSON) {
	if !p.Open('{') {
		return
	}
	var seen uint64
	for first := true; p.Next('}', first); first = false {
		switch p.Field(phaseFields, &seen) {
		case "name":
			ph.Name = p.String()
		case "instructions":
			ph.Instructions = p.Float()
		case "miss_per_instr":
			ph.MissPerInstr = p.Float()
		case "ipc":
			ph.IPC = p.Float()
		case "remote_frac":
			ph.RemoteFrac = p.Float()
		case "exposure":
			v := p.Float()
			ph.Exposure = &v
		case "chunks_per_core":
			ph.ChunksPerCore = int(p.Int(strconv.IntSize))
		case "jitter_frac":
			ph.JitterFrac = p.Float()
		case "miss_jitter":
			ph.MissJitter = p.Float()
		case "repeat":
			ph.Repeat = int(p.Int(strconv.IntSize))
		}
	}
}

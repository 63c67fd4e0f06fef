package pipeline

import (
	"fmt"
	"strconv"
	"strings"
)

// This file implements the YAML-subset parser for pipeline specifications.
// The paper defines a YAML format (modeled after Apache Airflow) to express
// scikit-learn pipelines; we support the subset those specs need: block
// mappings and sequences, flow lists [a, b] and maps {k: v}, quoted and
// bare scalars, comments, and int/float/bool typing.

type yamlLine struct {
	indent int
	text   string
	num    int
}

type yamlParser struct {
	lines []yamlLine
	pos   int
}

// ParseYAML parses a YAML-subset document into map[string]any / []any /
// scalar values.
func ParseYAML(src string) (any, error) {
	p := &yamlParser{}
	for num, raw := range strings.Split(src, "\n") {
		text := stripComment(raw)
		trimmed := strings.TrimRight(text, " \t")
		if strings.TrimSpace(trimmed) == "" {
			continue
		}
		indent := 0
		for indent < len(trimmed) && trimmed[indent] == ' ' {
			indent++
		}
		if strings.ContainsRune(trimmed[:indent], '\t') || (indent < len(trimmed) && trimmed[indent] == '\t') {
			return nil, fmt.Errorf("yaml: line %d: tabs are not allowed for indentation", num+1)
		}
		p.lines = append(p.lines, yamlLine{indent: indent, text: trimmed[indent:], num: num + 1})
	}
	if len(p.lines) == 0 {
		return nil, fmt.Errorf("yaml: empty document")
	}
	v, err := p.parseBlock(p.lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.lines) {
		return nil, fmt.Errorf("yaml: line %d: unexpected content %q", p.lines[p.pos].num, p.lines[p.pos].text)
	}
	return v, nil
}

func stripComment(s string) string {
	inSingle, inDouble := false, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			if !inDouble {
				inSingle = !inSingle
			}
		case '"':
			if !inSingle {
				inDouble = !inDouble
			}
		case '#':
			if !inSingle && !inDouble && (i == 0 || s[i-1] == ' ' || s[i-1] == '\t') {
				return s[:i]
			}
		}
	}
	return s
}

func (p *yamlParser) parseBlock(indent int) (any, error) {
	if p.pos >= len(p.lines) {
		return nil, fmt.Errorf("yaml: unexpected end of document")
	}
	line := p.lines[p.pos]
	if line.indent != indent {
		return nil, fmt.Errorf("yaml: line %d: bad indentation %d (expected %d)", line.num, line.indent, indent)
	}
	if line.text == "-" || strings.HasPrefix(line.text, "- ") {
		return p.parseSequence(indent)
	}
	return p.parseMapping(indent)
}

func (p *yamlParser) parseSequence(indent int) (any, error) {
	var out []any
	for p.pos < len(p.lines) {
		line := p.lines[p.pos]
		if line.indent != indent || (line.text != "-" && !strings.HasPrefix(line.text, "- ")) {
			break
		}
		rest := strings.TrimSpace(strings.TrimPrefix(line.text, "-"))
		if rest == "" {
			// Nested block on following deeper lines.
			p.pos++
			if p.pos >= len(p.lines) || p.lines[p.pos].indent <= indent {
				out = append(out, nil)
				continue
			}
			v, err := p.parseBlock(p.lines[p.pos].indent)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
			continue
		}
		if isMappingStart(rest) {
			// "- key: value" starts a mapping whose first entry shares the
			// dash line; re-home the rest at the item indent and parse.
			itemIndent := indent + (len(line.text) - len(rest))
			p.lines[p.pos] = yamlLine{indent: itemIndent, text: rest, num: line.num}
			v, err := p.parseMapping(itemIndent)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
			continue
		}
		v, err := parseScalar(rest, line.num)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		p.pos++
	}
	return out, nil
}

func isMappingStart(s string) bool {
	// A mapping entry has an unquoted, un-bracketed "key:" prefix.
	depth := 0
	inSingle, inDouble := false, false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '\'' && !inDouble:
			inSingle = !inSingle
		case c == '"' && !inSingle:
			inDouble = !inDouble
		case inSingle || inDouble:
		case c == '[' || c == '{':
			depth++
		case c == ']' || c == '}':
			depth--
		case c == ':' && depth == 0:
			return i == len(s)-1 || s[i+1] == ' '
		}
	}
	return false
}

func (p *yamlParser) parseMapping(indent int) (any, error) {
	out := map[string]any{}
	for p.pos < len(p.lines) {
		line := p.lines[p.pos]
		if line.indent != indent {
			break
		}
		if line.text == "-" || strings.HasPrefix(line.text, "- ") {
			break
		}
		key, rest, err := splitKey(line.text, line.num)
		if err != nil {
			return nil, err
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("yaml: line %d: duplicate key %q", line.num, key)
		}
		if rest == "" {
			p.pos++
			if p.pos >= len(p.lines) || p.lines[p.pos].indent <= indent {
				out[key] = nil
				continue
			}
			v, err := p.parseBlock(p.lines[p.pos].indent)
			if err != nil {
				return nil, err
			}
			out[key] = v
			continue
		}
		v, err := parseScalar(rest, line.num)
		if err != nil {
			return nil, err
		}
		out[key] = v
		p.pos++
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("yaml: line %d: expected a mapping", p.lines[min(p.pos, len(p.lines)-1)].num)
	}
	return out, nil
}

func splitKey(s string, num int) (key, rest string, err error) {
	if !isMappingStart(s) {
		return "", "", fmt.Errorf("yaml: line %d: expected \"key: value\", got %q", num, s)
	}
	i := strings.Index(s, ":")
	// isMappingStart guarantees a top-level colon; find the right one by
	// rescanning outside quotes/brackets.
	depth := 0
	inSingle, inDouble := false, false
	for j := 0; j < len(s); j++ {
		c := s[j]
		switch {
		case c == '\'' && !inDouble:
			inSingle = !inSingle
		case c == '"' && !inSingle:
			inDouble = !inDouble
		case inSingle || inDouble:
		case c == '[' || c == '{':
			depth++
		case c == ']' || c == '}':
			depth--
		case c == ':' && depth == 0 && (j == len(s)-1 || s[j+1] == ' '):
			i = j
			j = len(s)
		}
	}
	key = strings.TrimSpace(s[:i])
	key = unquote(key)
	rest = strings.TrimSpace(s[i+1:])
	if key == "" {
		return "", "", fmt.Errorf("yaml: line %d: empty key", num)
	}
	return key, rest, nil
}

func parseScalar(s string, num int) (any, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return nil, nil
	case strings.HasPrefix(s, "["):
		return parseFlowSeq(s, num)
	case strings.HasPrefix(s, "{"):
		return parseFlowMap(s, num)
	}
	if (strings.HasPrefix(s, "\"") && strings.HasSuffix(s, "\"") && len(s) >= 2) ||
		(strings.HasPrefix(s, "'") && strings.HasSuffix(s, "'") && len(s) >= 2) {
		return s[1 : len(s)-1], nil
	}
	switch s {
	case "null", "~":
		return nil, nil
	case "true", "True":
		return true, nil
	case "false", "False":
		return false, nil
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return int(i), nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f, nil
	}
	return s, nil
}

func unquote(s string) string {
	if len(s) >= 2 && ((s[0] == '"' && s[len(s)-1] == '"') || (s[0] == '\'' && s[len(s)-1] == '\'')) {
		return s[1 : len(s)-1]
	}
	return s
}

func parseFlowSeq(s string, num int) (any, error) {
	if !strings.HasSuffix(s, "]") {
		return nil, fmt.Errorf("yaml: line %d: unterminated flow sequence %q", num, s)
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	if inner == "" {
		return []any{}, nil
	}
	parts, err := splitFlow(inner, num)
	if err != nil {
		return nil, err
	}
	out := make([]any, len(parts))
	for i, part := range parts {
		v, err := parseScalar(part, num)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func parseFlowMap(s string, num int) (any, error) {
	if !strings.HasSuffix(s, "}") {
		return nil, fmt.Errorf("yaml: line %d: unterminated flow mapping %q", num, s)
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	out := map[string]any{}
	if inner == "" {
		return out, nil
	}
	parts, err := splitFlow(inner, num)
	if err != nil {
		return nil, err
	}
	for _, part := range parts {
		i := strings.Index(part, ":")
		if i < 0 {
			return nil, fmt.Errorf("yaml: line %d: flow mapping entry %q has no colon", num, part)
		}
		key := unquote(strings.TrimSpace(part[:i]))
		v, err := parseScalar(strings.TrimSpace(part[i+1:]), num)
		if err != nil {
			return nil, err
		}
		out[key] = v
	}
	return out, nil
}

// splitFlow splits a flow body on top-level commas.
func splitFlow(s string, num int) ([]string, error) {
	var parts []string
	depth := 0
	inSingle, inDouble := false, false
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '\'' && !inDouble:
			inSingle = !inSingle
		case c == '"' && !inSingle:
			inDouble = !inDouble
		case inSingle || inDouble:
		case c == '[' || c == '{':
			depth++
		case c == ']' || c == '}':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("yaml: line %d: unbalanced brackets in %q", num, s)
			}
		case c == ',' && depth == 0:
			parts = append(parts, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
	}
	if depth != 0 || inSingle || inDouble {
		return nil, fmt.Errorf("yaml: line %d: unbalanced flow syntax in %q", num, s)
	}
	parts = append(parts, strings.TrimSpace(s[start:]))
	return parts, nil
}

// SpecFromYAML parses a pipeline specification document:
//
//	name: my_pipeline
//	stages:
//	  - name: read_props
//	    op: read_table
//	    params: {table: properties}
//	  - name: joined
//	    op: join
//	    inputs: [read_props, read_train]
//	    params: {on: parcelid}
func SpecFromYAML(src string) (Spec, error) {
	doc, err := ParseYAML(src)
	if err != nil {
		return Spec{}, err
	}
	root, ok := doc.(map[string]any)
	if !ok {
		return Spec{}, fmt.Errorf("pipeline: spec root must be a mapping")
	}
	var spec Spec
	if name, ok := root["name"].(string); ok {
		spec.Name = name
	} else {
		return Spec{}, fmt.Errorf("pipeline: spec needs a string name")
	}
	stages, ok := root["stages"].([]any)
	if !ok {
		return Spec{}, fmt.Errorf("pipeline: spec needs a stages list")
	}
	for i, raw := range stages {
		m, ok := raw.(map[string]any)
		if !ok {
			return Spec{}, fmt.Errorf("pipeline: stage %d is not a mapping", i)
		}
		var ss StageSpec
		if ss.Name, ok = m["name"].(string); !ok {
			return Spec{}, fmt.Errorf("pipeline: stage %d needs a name", i)
		}
		if ss.Op, ok = m["op"].(string); !ok {
			return Spec{}, fmt.Errorf("pipeline: stage %q needs an op", ss.Name)
		}
		if ins, ok := m["inputs"]; ok {
			ss.Inputs, err = toStrList(ins)
			if err != nil {
				return Spec{}, fmt.Errorf("pipeline: stage %q inputs: %w", ss.Name, err)
			}
		}
		if outs, ok := m["outputs"]; ok {
			ss.Outputs, err = toStrList(outs)
			if err != nil {
				return Spec{}, fmt.Errorf("pipeline: stage %q outputs: %w", ss.Name, err)
			}
		} else if out, ok := m["output"].(string); ok {
			ss.Outputs = []string{out}
		}
		if params, ok := m["params"]; ok {
			pm, ok := params.(map[string]any)
			if !ok {
				return Spec{}, fmt.Errorf("pipeline: stage %q params must be a mapping", ss.Name)
			}
			ss.Params = pm
		}
		spec.Stages = append(spec.Stages, ss)
	}
	return spec, nil
}

func toStrList(v any) ([]string, error) {
	switch list := v.(type) {
	case []any:
		out := make([]string, len(list))
		for i, e := range list {
			s, ok := e.(string)
			if !ok {
				return nil, fmt.Errorf("element %d is %T, want string", i, e)
			}
			out[i] = s
		}
		return out, nil
	case string:
		return []string{list}, nil
	}
	return nil, fmt.Errorf("want a list of strings, got %T", v)
}
